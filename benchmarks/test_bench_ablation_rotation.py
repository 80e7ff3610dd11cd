"""Ablation: cluster-head rotation with and without the TI hand-off.

§2 requires an outgoing CH to ship its trust table to the base station
and a fresh CH to request it back.  This bench quantifies what that
hand-off is worth: the same rotating network is run with the transfer
enabled and with "amnesia" (every new CH starts from blank trust), and
compared against a static single-CH network as the upper bound.

Expected: amnesia discards the accumulated evidence against liars at
every rotation, so the registry's separation between honest and lying
nodes collapses toward zero while the transferring network keeps
widening it; detection accuracy under heavy compromise degrades
accordingly.
"""

import numpy as np

from repro.clusterctl.leach import LeachConfig
from repro.experiments.harness import Rotation, SimulationRun
from repro.experiments.reporting import render_table
from repro.sensors.specs import CorrectSpec, FaultSpec
from benchmarks._shared import run_once

N_NODES = 100
FAULTY = 45
SEED = 3


def run_variant(transfer_trust: bool):
    rng = np.random.default_rng(SEED + 1)
    faulty = tuple(
        int(x) for x in rng.choice(N_NODES, size=FAULTY, replace=False)
    )
    run = SimulationRun(
        n_nodes=N_NODES,
        field_side=100.0,
        sensing_radius=20.0,
        r_error=5.0,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
        faulty_ids=faulty,
        channel_loss=0.0,
        quiet_windows=False,
        seed=SEED,
        rotation=Rotation(
            leach=LeachConfig(ch_fraction=0.05, ti_threshold=0.5),
            events_per_leadership=8,
            transfer_trust=transfer_trust,
        ),
    ).run(8 * 8)
    registry = run.trust_snapshot()
    honest = [ti for n, ti in registry.items() if n not in faulty]
    lying = [ti for n, ti in registry.items() if n in faulty]
    separation = (
        sum(honest) / len(honest) - sum(lying) / len(lying)
        if honest and lying
        else 0.0
    )
    return {
        "accuracy": run.metrics().accuracy,
        "trust_separation": separation,
        "rotations": len(run.rounds),
        "distinct_leaders": len(
            {ch for record in run.rounds for ch in record.cluster_heads}
        ),
    }


def test_ablation_rotation_trust_transfer(benchmark):
    def workload():
        return {
            "rotation + TI hand-off (paper)": run_variant(True),
            "rotation + amnesia": run_variant(False),
        }

    results = run_once(benchmark, workload)
    print()
    print(render_table(
        ["variant", "accuracy", "honest-vs-liar TI separation",
         "rotations", "distinct leaders"],
        [(name, f"{r['accuracy']:.3f}", f"{r['trust_separation']:.3f}",
          str(r["rotations"]), str(r["distinct_leaders"]))
         for name, r in results.items()],
    ))

    paper = results["rotation + TI hand-off (paper)"]
    amnesia = results["rotation + amnesia"]
    # Rotation actually happened in both runs.
    assert paper["distinct_leaders"] >= 10
    # The hand-off preserves (and keeps widening) the evidence gap.
    assert paper["trust_separation"] > amnesia["trust_separation"] + 0.1
    # And it pays off in detection accuracy under a 45% compromise.
    assert paper["accuracy"] >= amnesia["accuracy"]
