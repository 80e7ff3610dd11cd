#!/usr/bin/env python
"""Profile one representative sweep point of Experiment 2 or 4.

Runs a single ``(config, sweep point, trial)`` simulation -- the unit
the parallel sweep runner fans out -- under ``cProfile`` and prints the
top functions by cumulative time, so the next hot spot is one command
away:

    make profile
    PYTHONPATH=src python benchmarks/profile_hotspots.py [--experiment 4] \\
        [--percent 30] [--events 100] [--top 20]

``--experiment 2`` (the default) profiles a fixed-CH point: level 0,
30% faulty, the default event count.  It exercises the full location
pipeline: report decode, circle tracking, the clustering heuristic,
event-neighbour queries, and CTI voting.

``--experiment 4`` profiles one TIBFIT point of the rotating network
(:func:`repro.experiments.experiment4.run_point` with the base-station
trust hand-off): LEACH elections, per-leadership set-up, shadow CH
mirrors and base-station arbitration on top of the same pipeline.  Its
length is the config's leaderships times events per leadership, so
``--events`` does not apply.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiment",
        type=int,
        choices=(2, 4),
        default=2,
        help="2 = fixed-CH location point, 4 = rotating network (default 2)",
    )
    parser.add_argument(
        "--percent",
        type=float,
        default=30.0,
        help="sweep point: percent of nodes faulty (default 30)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=100,
        help="events simulated in an Experiment 2 run (default 100)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=20,
        help="rows of the cumulative-time table to print (default 20)",
    )
    args = parser.parse_args()

    profiler = cProfile.Profile()
    if args.experiment == 2:
        from repro.experiments.config import Experiment2Config
        from repro.experiments.experiment2 import run_point

        config = Experiment2Config(events_per_run=args.events)
        profiler.enable()
        accuracy = run_point(config, args.percent, trial=0)
        profiler.disable()
        print(
            f"experiment 2, level {config.fault_level}, "
            f"{args.percent:.0f}% faulty, {args.events} events "
            f"-> accuracy {accuracy:.3f}\n"
        )
    else:
        from repro.experiments import experiment4

        config = experiment4.Experiment4Config()
        profiler.enable()
        accuracy = experiment4.run_point(
            config, args.percent, trial=0, use_trust=True, transfer_trust=True
        )
        profiler.disable()
        print(
            f"experiment 4 (rotating TIBFIT), level {config.fault_level}, "
            f"{args.percent:.0f}% faulty, {config.leadership_rounds} "
            f"leaderships of {config.events_per_leadership} events "
            f"-> accuracy {accuracy:.3f}\n"
        )
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
