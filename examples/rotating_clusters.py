#!/usr/bin/env python
"""Rotating cluster heads: TIBFIT's full §2 control plane in action.

The headline experiments use a fixed data sink, but the paper's system
model rotates cluster headship for energy reasons -- and makes the
rotation *trust-aware*: candidate CHs below a trust threshold are
vetoed by the base station, an outgoing CH ships its trust table to
the base station, and the next head starts from that inherited state.

This example runs a 100-node network with 40% naive liars through
eight leadership rotations and shows:

  * leadership actually rotating (how many distinct nodes led),
  * the base-station registry separating liars from honest nodes,
  * compromised nodes becoming ineligible for headship as their
    registry trust decays below the 0.5 admission threshold,
  * detection accuracy holding up across rotations because trust
    state survives the hand-off.

Run:
    python examples/rotating_clusters.py
"""

import numpy as np

from repro.clusterctl.leach import LeachConfig
from repro.experiments.harness import Rotation, SimulationRun
from repro.experiments.reporting import render_table
from repro.sensors.specs import CorrectSpec, FaultSpec

N_NODES = 100
COMPROMISED = 40
ROTATIONS = 8
SEED = 19


def main() -> None:
    rng = np.random.default_rng(SEED)
    captured = tuple(
        int(x) for x in rng.choice(N_NODES, size=COMPROMISED, replace=False)
    )

    rotation = Rotation(
        leach=LeachConfig(ch_fraction=0.05, ti_threshold=0.5),
        events_per_leadership=10,
    )
    run = SimulationRun(
        n_nodes=N_NODES,
        field_side=100.0,
        sensing_radius=20.0,
        r_error=5.0,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
        faulty_ids=captured,
        quiet_windows=False,
        seed=SEED,
        rotation=rotation,
    )
    run.run(ROTATIONS * rotation.events_per_leadership)
    metrics = run.metrics()
    registry = run.trust_snapshot()

    print(f"Rotating-cluster network: {N_NODES} nodes, "
          f"{COMPROMISED}% compromised, {ROTATIONS} leadership rounds\n")

    leaders = {ch for record in run.rounds for ch in record.cluster_heads}
    captured_set = set(captured)
    faulty_leaders = [n for n in leaders if n in captured_set]
    print(render_table(
        ["metric", "value"],
        [
            ("events generated", str(metrics.events_total)),
            ("detection accuracy", f"{metrics.accuracy:.1%}"),
            ("leadership rotations", str(len(run.rounds))),
            ("distinct leaders", str(len(leaders))),
            ("leaders that were compromised nodes",
             str(len(faulty_leaders))),
        ],
    ))

    honest = [ti for n, ti in registry.items() if n not in captured_set]
    lying = [ti for n, ti in registry.items() if n in captured_set]
    print("\nBase-station trust registry after the run:")
    print(render_table(
        ["population", "mean TI", "min TI", "max TI"],
        [
            ("honest", f"{np.mean(honest):.3f}", f"{min(honest):.3f}",
             f"{max(honest):.3f}"),
            ("compromised", f"{np.mean(lying):.3f}", f"{min(lying):.3f}",
             f"{max(lying):.3f}"),
        ],
    ))

    barred = sorted(
        n for n in captured_set
        if registry.get(n, 1.0) < rotation.leach.ti_threshold
    )
    print(f"\nCompromised nodes now barred from CH candidacy "
          f"(registry TI < {rotation.leach.ti_threshold}): "
          f"{len(barred)}/{COMPROMISED}")
    print("Trust state follows nodes across leadership changes, so the "
          "network keeps its memory of who lies even as the data sink "
          "moves.")


if __name__ == "__main__":
    main()
