"""Extension bench: failing data sinks inside the rotating network (§3.4).

Compromised nodes that win elections serve as verdict-inverting
cluster heads.  The bench compares the raw CH decision log (what a
network without shadow CHs would output) against the system-level
output after base-station arbitration, and reports the §3.4 machinery
at work: dissents, depositions, and registry penalties.
"""

import numpy as np

from repro.clusterctl.leach import LeachConfig
from repro.experiments.harness import Rotation, SimulationRun
from repro.experiments.metrics import score_run
from repro.experiments.reporting import render_table
from repro.sensors.specs import CorrectSpec, FaultSpec
from benchmarks._shared import run_once

SEED = 11


def run_corrupt():
    rng = np.random.default_rng(SEED + 7)
    faulty = tuple(int(x) for x in rng.choice(49, size=15, replace=False))
    run = SimulationRun(
        n_nodes=49,
        field_side=70.0,
        sensing_radius=20.0,
        r_error=5.0,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
        faulty_ids=faulty,
        channel_loss=0.0,
        quiet_windows=False,
        seed=SEED,
        rotation=Rotation(
            leach=LeachConfig(ch_fraction=0.08, ti_threshold=0.5),
            events_per_leadership=6,
            corrupt_elected_faulty=True,
        ),
    ).run(6 * 6)

    raw_outcomes, _ = score_run(
        run.events,
        run.all_decisions(),
        round_interval=run.round_interval,
        r_error=run.r_error,
    )
    raw_acc = sum(o.detected for o in raw_outcomes) / len(raw_outcomes)
    corrected_acc = run.metrics().accuracy
    corrupt_rounds = sum(
        1 for record in run.rounds if record.corrupt_heads
    )
    return {
        "raw_accuracy": raw_acc,
        "corrected_accuracy": corrected_acc,
        "corrupt_leaderships": corrupt_rounds,
        "depositions": len(run.bs.resolutions),
    }


def test_corrupt_ch_arbitration(benchmark):
    result = run_once(benchmark, run_corrupt)
    print()
    print(render_table(
        ["metric", "value"],
        [
            ("accuracy from raw CH verdicts",
             f"{result['raw_accuracy']:.3f}"),
            ("accuracy after BS arbitration",
             f"{result['corrected_accuracy']:.3f}"),
            ("leadership rounds with a corrupt head",
             str(result["corrupt_leaderships"])),
            ("depositions (2-of-3 votes lost by the CH)",
             str(result["depositions"])),
        ],
    ))

    # Corruption happened and was repaired.
    assert result["corrupt_leaderships"] >= 1
    assert result["depositions"] >= 1
    assert result["corrected_accuracy"] > result["raw_accuracy"] + 0.1
    assert result["corrected_accuracy"] >= 0.9
