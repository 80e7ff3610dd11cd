#!/usr/bin/env python
"""Perimeter watch: intrusion localisation with compromised sensors.

The paper's motivating military scenario (§1): "sense any movement
within a cordoned-off area".  A 10x10 grid of sensors watches a 100x100
field; intrusions occur at random locations; 45% of the sensors have
been captured by the adversary and report wrong locations (level-1
smart liars that throttle their lying to avoid detection).

The example shows:
  * localisation accuracy for TIBFIT vs. the majority baseline,
  * how the smart liars' own trust-index estimates forced them to
    throttle,
  * CH-side diagnosis: which nodes the trust table would isolate.

Run:
    python examples/perimeter_watch.py
"""

import numpy as np

from repro.experiments.harness import SimulationRun
from repro.experiments.reporting import render_table
from repro.sensors.faults import Level1Behavior
from repro.sensors.specs import CorrectSpec, FaultSpec

FIELD = 100.0
N_NODES = 100
COMPROMISED = 45
EVENTS = 120
SEED = 7


def build_run(use_trust: bool) -> SimulationRun:
    rng = np.random.default_rng(SEED)
    captured = tuple(
        int(x) for x in rng.choice(N_NODES, size=COMPROMISED, replace=False)
    )
    run = SimulationRun(
        mode="location",
        n_nodes=N_NODES,
        field_side=FIELD,
        sensing_radius=20.0,
        r_error=5.0,
        lam=0.25,
        fault_rate=0.1,
        use_trust=use_trust,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=FaultSpec(
            level=1,            # smart, independent liars
            drop_rate=0.25,
            sigma=4.25,
            lower_ti=0.5,
            upper_ti=0.8,
        ),
        faulty_ids=captured,
        channel_loss=0.008,
        seed=SEED,
    )
    run.run(EVENTS)
    return run


def main() -> None:
    print(f"Perimeter watch: {N_NODES} sensors, {COMPROMISED}% captured "
          f"(level-1 smart liars), {EVENTS} intrusions\n")

    tibfit = build_run(use_trust=True)
    baseline = build_run(use_trust=False)
    mt, mb = tibfit.metrics(), baseline.metrics()

    print(render_table(
        ["system", "intrusions localised", "mean error (units)"],
        [
            ("TIBFIT", f"{mt.accuracy:.1%}",
             f"{mt.mean_localisation_error:.2f}"),
            ("Baseline", f"{mb.accuracy:.1%}",
             f"{mb.mean_localisation_error:.2f}"
             if mb.mean_localisation_error else "-"),
        ],
    ))

    # How hard did the trust index throttle the captured sensors?
    throttled = 0
    honest_phase = 0
    for node_id in mt.truly_faulty_nodes:
        behavior = tibfit.nodes[node_id].behavior
        if isinstance(behavior, Level1Behavior):
            if behavior.estimator.ti < 1.0:
                throttled += 1
            if not behavior.currently_lying:
                honest_phase += 1
    print(f"\nCaptured sensors throttled by their own TI estimate: "
          f"{throttled}/{COMPROMISED}")
    print(f"Captured sensors stuck in forced-honest phase at the end: "
          f"{honest_phase}/{COMPROMISED}")

    # What would CH-side diagnosis isolate at a 0.5 threshold?
    trust = tibfit.trust_snapshot()
    suspects = sorted(n for n, ti in trust.items() if ti < 0.5)
    true_positives = set(suspects) & set(mt.truly_faulty_nodes)
    print(f"\nNodes below TI 0.5: {len(suspects)} "
          f"({len(true_positives)} genuinely captured, "
          f"{len(suspects) - len(true_positives)} false suspicion)")
    print("\nThe trust index both masks the liars' reports and keeps "
          "them too busy rebuilding trust to lie effectively.")


if __name__ == "__main__":
    main()
