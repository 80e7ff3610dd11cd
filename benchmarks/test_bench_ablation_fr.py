"""Ablation: decoupling f_r from the NER (Table 2's footnote).

Table 2 sets ``f_r = 0.1`` even though correct nodes' location noise
errs far less than 10%, "to compensate for wireless channel model
losses": a lost report looks like a missed alarm and would otherwise
grind honest nodes' trust down.  This bench runs the same lossy-channel
scenario with a tight f_r (equal to the true sensing error rate) and
with the paper's compensated f_r, and compares honest-node trust and
detection accuracy.
"""

from repro.experiments.harness import SimulationRun
from repro.experiments.reporting import render_table
from repro.sensors.specs import CorrectSpec, FaultSpec
from benchmarks._shared import run_once


def run_with_fr(fault_rate):
    run = SimulationRun(
        mode="location",
        n_nodes=49,
        field_side=70.0,
        sensing_radius=20.0,
        r_error=5.0,
        lam=0.25,
        fault_rate=fault_rate,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
        faulty_ids=(),
        channel_loss=0.03,  # exaggerated losses make the effect visible
        seed=77,
    )
    run.run(80)
    tis = run.trust_snapshot()
    return {
        "accuracy": run.metrics().accuracy,
        "mean_honest_ti": sum(tis.values()) / len(tis),
        "min_honest_ti": min(tis.values()),
    }


def test_ablation_fault_rate_compensation(benchmark):
    def workload():
        return {
            "tight f_r=0.005": run_with_fr(0.005),
            "paper f_r=0.1": run_with_fr(0.1),
        }

    results = run_once(benchmark, workload)
    print()
    rows = []
    for name, r in results.items():
        rows.append((name, f"{r['accuracy']:.3f}",
                     f"{r['mean_honest_ti']:.3f}",
                     f"{r['min_honest_ti']:.3f}"))
    print(render_table(
        ["configuration", "accuracy", "mean honest TI", "min honest TI"],
        rows,
    ))

    tight = results["tight f_r=0.005"]
    paper = results["paper f_r=0.1"]
    # The compensated fault rate preserves honest nodes' standing...
    assert paper["mean_honest_ti"] > tight["mean_honest_ti"]
    assert paper["min_honest_ti"] > tight["min_honest_ti"]
    # ...without costing detection accuracy.
    assert paper["accuracy"] >= tight["accuracy"] - 0.02
