"""Extension bench: how collusion *structure* changes attack strength.

§7 future work: "explore more types of intelligent models involving
different levels of collusion and decision sharing amongst malicious
nodes."  This bench fixes the compromised fraction at 50% (level 2)
and varies the number of independent collusion cells: one
fully-connected cell (the paper's model), two cells, four cells, and
the degenerate per-node "cells" that reduce collusion to independent
lying.

Expected: one big cell is the strongest attack -- all its members
reinforce the same fake location cluster -- and fragmenting the
conspiracy weakens it monotonically (roughly) toward level-1-like
damage.
"""

import numpy as np

from repro.experiments.harness import SimulationRun
from repro.experiments.reporting import render_table
from repro.sensors.specs import CorrectSpec, FaultSpec
from benchmarks._shared import run_once

N_NODES = 100
COMPROMISED = 50
SEED = 41
CELLS = (1, 2, 4, 25)


def accuracy_for(cells: int, seed: int = SEED) -> float:
    rng = np.random.default_rng(seed)
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
        fault_spec=FaultSpec(
            level=2, drop_rate=0.25, sigma=4.25, collusion_cells=cells
        ),
        faulty_ids=faulty,
        channel_loss=0.008,
        seed=seed,
    )
    run.run(100)
    return run.metrics().accuracy


def test_ablation_collusion_cells(benchmark):
    def workload():
        return {
            cells: (accuracy_for(cells, SEED) + accuracy_for(cells, SEED + 1))
            / 2.0
            for cells in CELLS
        }

    results = run_once(benchmark, workload)
    print()
    print(render_table(
        ["collusion cells", "TIBFIT accuracy (50% compromised, level 2)"],
        [(str(c), f"{acc:.3f}") for c, acc in results.items()],
    ))

    # The single fully-connected cell is the strongest attack...
    weakest_defence = min(results.values())
    assert results[1] <= weakest_defence + 0.03
    # ...and full fragmentation (per-pair cells) is clearly weaker.
    assert results[25] >= results[1] + 0.05
    # Sanity: every configuration leaves accuracy a valid probability.
    assert all(0.0 <= acc <= 1.0 for acc in results.values())
