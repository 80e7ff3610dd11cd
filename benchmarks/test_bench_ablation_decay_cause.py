"""Extension bench: battery death vs adversarial compromise as decay.

§3.1 motivates the increasing-faulty-density scenario with two causes:
"batteries of the nodes dying out with time, or existing nodes being
compromised by adversaries".  Experiment 3 simulates the adversarial
cause; this bench runs the same 5%-per-50-events decay schedule with
*dead* nodes instead (drop rate 1.0, no lies) and compares.

Expected: death is the milder decay -- a dead node only withholds
reports (its trust decays, its vote weight vanishes, it never supports
a wrong location), so TIBFIT accuracy under death dominates accuracy
under compromise at every stage, and even the baseline suffers less.
"""

import numpy as np

from repro.experiments.harness import SimulationRun
from repro.experiments.reporting import render_table
from repro.sensors.specs import CorrectSpec, FaultSpec
from benchmarks._shared import run_once

N_NODES = 100
SEED = 47
STEPS = 10          # 5% -> 55% in 5% steps
EVENTS_PER_STEP = 30


def run_decay(spec: FaultSpec, use_trust: bool):
    rng = np.random.default_rng(SEED)
    order = rng.permutation(N_NODES)
    run = SimulationRun(
        mode="location",
        n_nodes=N_NODES,
        field_side=100.0,
        sensing_radius=20.0,
        r_error=5.0,
        lam=0.25,
        fault_rate=0.1,
        use_trust=use_trust,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=spec,
        faulty_ids=order[:5],
        channel_loss=0.008,
        seed=SEED,
    )
    cursor = 5
    for step in range(1, STEPS):
        run.schedule_compromise(
            step * EVENTS_PER_STEP, order[cursor : cursor + 5]
        )
        cursor += 5
    run.run(STEPS * EVENTS_PER_STEP)
    series = run.metrics().accuracy_over_windows(EVENTS_PER_STEP)
    return [acc for _w, acc in series]


def test_ablation_decay_cause(benchmark):
    compromise = FaultSpec(level=0, drop_rate=0.25, sigma=4.25)
    death = FaultSpec(level=0, drop_rate=1.0, sigma=4.25)

    def workload():
        return {
            "compromise (lies + drops), TIBFIT":
                run_decay(compromise, True),
            "battery death (silence), TIBFIT":
                run_decay(death, True),
            "battery death (silence), Baseline":
                run_decay(death, False),
        }

    results = run_once(benchmark, workload)
    print()
    windows = range(1, STEPS + 1)
    print(render_table(
        ["window (x30 events)"] + [str(w) for w in windows],
        [
            [name] + [f"{acc:.2f}" for acc in series]
            for name, series in results.items()
        ],
    ))

    lies = results["compromise (lies + drops), TIBFIT"]
    death_t = results["battery death (silence), TIBFIT"]
    death_b = results["battery death (silence), Baseline"]

    # Death is the milder decay for TIBFIT over the late stages.
    late = slice(STEPS - 4, STEPS)
    assert sum(death_t[late]) >= sum(lies[late]) - 0.05 * 4
    # TIBFIT under death holds high accuracy through 50% dead.
    assert min(death_t[late]) >= 0.8
    # The stateless baseline suffers from dead weight in the silent
    # majority: TIBFIT beats it late in the decay.
    assert sum(death_t[late]) >= sum(death_b[late])
