"""Ablation: TI-threshold diagnosis and isolation (§3.1, §4.2).

"Once they reach the threshold, the nodes can be removed from the
network, thus eliminating them from causing future damage."  This
bench runs the same 45%-compromised level-0 location scenario with
isolation off and on, and reports accuracy (whole run and late
window), diagnosis recall, and wrongful isolations.

Expected: isolation never hurts accuracy, improves the late window
(liars stop polluting votes entirely once removed), catches most of
the liars, and wrongly isolates at most a node or two.
"""

import numpy as np

from repro.experiments.harness import SimulationRun
from repro.experiments.reporting import render_table
from repro.sensors.specs import CorrectSpec, FaultSpec
from benchmarks._shared import run_once

N_NODES = 100
COMPROMISED = 45
EVENTS = 120
SEED = 53


def run_with(diagnosis_threshold):
    rng = np.random.default_rng(SEED)
    faulty = tuple(
        int(x) for x in rng.choice(N_NODES, size=COMPROMISED, replace=False)
    )
    run = SimulationRun(
        mode="location",
        n_nodes=N_NODES,
        field_side=100.0,
        sensing_radius=20.0,
        r_error=5.0,
        lam=0.25,
        fault_rate=0.1,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
        faulty_ids=faulty,
        channel_loss=0.008,
        diagnosis_threshold=diagnosis_threshold,
        seed=SEED,
    )
    run.run(EVENTS)
    metrics = run.metrics()
    late = [o for o in metrics.outcomes if o.time > EVENTS * 10.0 * 0.6]
    return {
        "accuracy": metrics.accuracy,
        "late_accuracy": sum(o.detected for o in late) / len(late),
        "diagnosed": len(metrics.diagnosed_nodes),
        "recall": metrics.diagnosis_recall,
        "wrongful": metrics.diagnosis_false_positives,
    }


def test_ablation_diagnosis_isolation(benchmark):
    def workload():
        return {
            "no isolation": run_with(None),
            "isolate below TI 0.2": run_with(0.2),
        }

    results = run_once(benchmark, workload)
    print()
    print(render_table(
        ["variant", "accuracy", "late accuracy", "diagnosed",
         "recall", "wrongful"],
        [
            (name, f"{r['accuracy']:.3f}", f"{r['late_accuracy']:.3f}",
             str(r["diagnosed"]), f"{r['recall']:.2f}",
             str(r["wrongful"]))
            for name, r in results.items()
        ],
    ))

    off = results["no isolation"]
    on = results["isolate below TI 0.2"]
    # Isolation never hurts, and the late window benefits.
    assert on["accuracy"] >= off["accuracy"] - 0.03
    assert on["late_accuracy"] >= off["late_accuracy"] - 0.03
    # Most liars are caught; wrongful isolations stay rare.
    assert on["recall"] >= 0.5
    assert on["wrongful"] <= 3
    # The no-isolation run reports no diagnoses at all.
    assert off["diagnosed"] == 0
