"""TIBFIT reproduction: trust-index fault tolerance for sensor networks.

A complete implementation of the protocol and evaluation from
"TIBFIT: Trust Index Based Fault Tolerance for Arbitrary Data Faults in
Sensor Networks" (Krasniewski et al., DSN 2005), built on a
deterministic discrete-event simulation substrate.

Package map
-----------
``repro.simkernel``
    Discrete-event kernel: simulator, event queue, RNG streams.
``repro.network``
    Geometry, deployments, typed messages, the lossy radio channel, and
    the multi-hop reliable dissemination extension.
``repro.sensors``
    Perception model, event generation, the four node categories
    (correct / level 0 / level 1 / level 2), behaviour specs.
``repro.core``
    The paper's contribution: trust tables, CTI voting, report
    clustering, concurrent-event tracking, diagnosis, the majority
    baseline.
``repro.clusterctl``
    LEACH election with the TI gate, cluster heads and the corrupt head
    of §3.4, shadow cluster heads, and the base station.
``repro.analysis``
    Closed forms from §5 (figs. 10-11) and the reliability predictor.
``repro.experiments``
    Tables 1-2 as configs, the simulation harness (fixed-head and
    rotating multi-cluster networks alike), Experiments 1-4, the sweep
    runner, metrics, and terminal reporting.
``repro.obs``
    Causal spans, decision provenance, metrics records, and the JSONL
    artifact bundle with its schema checks.
``repro.service``
    DES-free trust sessions, a multi-tenant session manager, and the
    HTTP/JSON front end behind ``tibfit-repro serve``.
``repro.chaos``
    Fault plans, runtime invariants and ``plan x seed`` campaigns.

Quick start
-----------
>>> from repro.experiments.harness import SimulationRun
>>> from repro.sensors.specs import FaultSpec
>>> run = SimulationRun(mode="binary", n_nodes=10, sensing_radius=100.0,
...                     lam=0.1, fault_rate=0.01,
...                     fault_spec=FaultSpec(level=0, drop_rate=0.5),
...                     faulty_ids=(0, 1, 2), seed=1)
>>> _ = run.run(20)
>>> run.metrics().accuracy
1.0
"""

__version__ = "1.0.0"
__paper__ = (
    "Krasniewski, Varadharajan, Rabeler, Bagchi, Hu. "
    "TIBFIT: Trust Index Based Fault Tolerance for Arbitrary Data "
    "Faults in Sensor Networks. DSN 2005."
)
