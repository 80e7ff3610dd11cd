#!/usr/bin/env python
"""Quickstart: TIBFIT in sixty lines.

Builds a ten-node cluster where SEVEN nodes are compromised -- a 70%
faulty majority that stateless voting cannot mask -- runs one hundred
binary events through both TIBFIT and the majority-voting baseline,
and prints the accuracy plus the trust table TIBFIT learned.

Run:
    python examples/quickstart.py
"""

from repro.experiments.harness import SimulationRun
from repro.experiments.reporting import render_table
from repro.sensors.specs import CorrectSpec, FaultSpec


def run_system(use_trust: bool) -> SimulationRun:
    run = SimulationRun(
        mode="binary",
        n_nodes=10,
        field_side=30.0,
        sensing_radius=100.0,     # every node neighbours every event
        lam=0.1,                  # Table 1's trust decay constant
        fault_rate=0.01,          # f_r = correct nodes' NER
        use_trust=use_trust,
        correct_spec=CorrectSpec(miss_rate=0.01),
        fault_spec=FaultSpec(
            level=0,              # naive liars
            drop_rate=0.5,        # missed alarms half the time
            false_alarm_rate=0.10,
        ),
        faulty_ids=(0, 1, 2, 3, 4, 5, 6),  # 70% compromised
        channel_loss=0.0,
        seed=2005,
    )
    run.run(100)
    return run


def main() -> None:
    tibfit = run_system(use_trust=True)
    baseline = run_system(use_trust=False)

    print("TIBFIT quickstart: 10-node cluster, 70% compromised, "
          "100 binary events\n")
    rows = [
        ("TIBFIT (trust-index voting)",
         f"{tibfit.metrics().accuracy:.1%}"),
        ("Baseline (majority voting)",
         f"{baseline.metrics().accuracy:.1%}"),
    ]
    print(render_table(["system", "detection accuracy"], rows))

    print("\nTrust indices TIBFIT learned (nodes 0-6 are the liars):")
    trust_rows = [
        (f"node {node_id}",
         f"{ti:.3f}",
         "FAULTY" if node_id <= 6 else "correct")
        for node_id, ti in sorted(tibfit.trust_snapshot().items())
    ]
    print(render_table(["node", "trust index", "ground truth"], trust_rows))

    diagnosable = [
        node_id
        for node_id, ti in tibfit.trust_snapshot().items()
        if ti < 0.5
    ]
    print(f"\nNodes below the 0.5 isolation threshold: {diagnosable}")
    print("(All seven liars are identified; the cluster head could now "
          "remove them.)")


if __name__ == "__main__":
    main()
