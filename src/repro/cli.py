"""Command-line interface to the TIBFIT reproduction.

Subcommands::

    tibfit-repro table 1|2          print a paper parameter sheet
    tibfit-repro fig N [...]        regenerate one figure's data series
    tibfit-repro run [...]          one ad-hoc simulation, metrics printed
    tibfit-repro trace [...]        instrumented run: TI evolution,
                                    decision timeline, JSONL artifacts
                                    with the causal span log
    tibfit-repro explain DIR [...]  render one decision's full causal
                                    chain from an exported run directory
    tibfit-repro rotate [...]       one rotating multi-cluster (LEACH)
                                    run, registry TIs printed
    tibfit-repro analyze baseline   eqs. 1-3 success-probability curve
    tibfit-repro analyze decay      Fig.-11 break-even roots and k_max
    tibfit-repro chaos [...]        fault-injection campaign over a
                                    plan x seed grid with invariant checks
    tibfit-repro serve [...]        multi-tenant trust-session HTTP
                                    service

Also reachable as ``python -m repro``.  A reader that closes stdout
early (``... | head``) ends the command quietly with exit status 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.decay import k_max, solve_k
from repro.analysis.voting import success_curve
from repro.experiments import experiment1, experiment2, experiment3
from repro.experiments.config import (
    Experiment1Config,
    Experiment2Config,
    Experiment3Config,
)
from repro.experiments.harness import Rotation, SimulationRun
from repro.experiments.reporting import (
    Series,
    render_parameter_sheet,
    render_series_table,
    render_table,
)
from repro.sensors.specs import CorrectSpec, FaultSpec
from repro.service.session import TrustSession


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type of an integer option of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        return value

    return parse


#: argparse type of the count options: an integer of at least 1.
_positive_int = _int_at_least(1)

#: argparse type of the seed options: numpy seeds from integers >= 0.
_seed = _int_at_least(0)


def _port(text: str) -> int:
    """argparse type of ``serve --port``: 0 (ephemeral) to 65535."""
    value = _int_at_least(0)(text)
    if value > 65535:
        raise argparse.ArgumentTypeError(
            f"must be at most 65535, got {value}"
        )
    return value


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _percent(text: str) -> float:
    """argparse type of ``--percent-faulty``: a number in [0, 100]."""
    value = _number(text)
    if not 0.0 <= value <= 100.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 100], got {text}")
    return value


def _probability(text: str) -> float:
    """argparse type of ``analyze baseline --p``/``--q``: in [0, 1]."""
    value = _number(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of a rate or length (``--lambda``, ``--lambdas``,
    ``serve``'s geometry): finite and above 0."""
    value = _number(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text}"
        )
    return value


def _sigma(text: str) -> float:
    """argparse type of the noise sigmas: finite and at least 0."""
    value = _number(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and non-negative, got {text}"
        )
    return value


def _below_one(text: str) -> float:
    """argparse type of ``--fault-rate`` and ``--diagnosis-threshold``:
    a number in [0, 1)."""
    value = _number(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return value


#: ``fig`` flags a figure cannot use, refused rather than ignored:
#: Experiment 3 (figures 8-9) counts events per compromise step, which
#: no flag sets, and figures 10-11 are analytic.
_FIG_REFUSES: Dict[int, Tuple[str, ...]] = {
    8: ("--events",),
    9: ("--events",),
    10: ("--trials", "--events", "--workers", "--seed"),
    11: ("--trials", "--events", "--workers", "--seed"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tibfit-repro",
        description="TIBFIT (DSN 2005) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a paper parameter sheet")
    p_table.add_argument("number", type=int, choices=(1, 2))

    p_fig = sub.add_parser("fig", help="regenerate one figure's series")
    p_fig.add_argument("number", type=int, choices=tuple(range(2, 12)))
    p_fig.add_argument("--trials", type=_positive_int, default=None,
                       help="simulation trials per sweep point (default "
                            "2; figures 2-9)")
    p_fig.add_argument("--events", type=_positive_int, default=None,
                       help="events per run (default: the paper's; "
                            "figures 2-7)")
    p_fig.add_argument("--seed", type=_seed, default=None,
                       help="base seed (default 2005; figures 2-9)")
    p_fig.add_argument("--workers", type=_positive_int, default=None,
                       help="worker processes for the sweep grid "
                            "(default: serial; figures 2-9); results are "
                            "identical for any count")

    p_run = sub.add_parser("run", help="one ad-hoc simulation")
    _add_run_options(p_run)

    p_trace = sub.add_parser(
        "trace",
        help="instrumented run: TI evolution, decision timeline, artifacts",
    )
    _add_run_options(p_trace)
    p_trace.add_argument("--out", type=str, default=None,
                         help="export manifest + JSONL artifacts here")
    p_trace.add_argument("--max-nodes", type=_positive_int, default=12,
                         help="TI trajectories shown (lowest final TI "
                              "first when the network is larger)")
    p_trace.add_argument("--width", type=_positive_int, default=60,
                         help="sparkline width in characters")

    p_explain = sub.add_parser(
        "explain",
        help="explain a TIBFIT verdict from an exported run directory",
    )
    p_explain.add_argument(
        "run_dir", type=str,
        help="artifact directory written by 'trace --out'")
    p_explain.add_argument(
        "--decision", type=int, default=None,
        help="decision id to explain (default: list all decisions)")
    p_explain.add_argument(
        "--node", type=int, default=None,
        help="render every span naming this node instead")

    p_rot = sub.add_parser(
        "rotate", help="rotating multi-cluster network run (§2)"
    )
    p_rot.add_argument("--nodes", type=_positive_int, default=100)
    p_rot.add_argument("--percent-faulty", type=_percent, default=30.0)
    p_rot.add_argument("--level", type=int, choices=(0, 1, 2), default=0)
    p_rot.add_argument("--rounds", type=_positive_int, default=6,
                       help="leadership rounds")
    p_rot.add_argument("--events-per-round", type=_positive_int, default=8)
    p_rot.add_argument("--baseline", action="store_true")
    p_rot.add_argument("--no-transfer", action="store_true",
                       help="disable the BS trust hand-off (amnesia)")
    p_rot.add_argument("--seed", type=_seed, default=0)

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection campaign (see docs/chaos.md)",
    )
    p_chaos.add_argument(
        "--plans", type=str, default="empty,burst-loss,ch-crash",
        help="comma-separated plan selectors: builtin names, plan JSON "
             "paths, or random:<seed> (see --list-plans)")
    p_chaos.add_argument("--list-plans", action="store_true",
                         help="print the builtin plan names and exit")
    p_chaos.add_argument("--seeds", type=_positive_int, default=3,
                         help="seeds per plan (0..N-1)")
    p_chaos.add_argument("--nodes", type=_positive_int, default=10)
    p_chaos.add_argument("--rounds", type=_positive_int, default=20,
                         help="event rounds per run")
    p_chaos.add_argument("--percent-faulty", type=_percent, default=20.0)
    p_chaos.add_argument("--diagnosis-threshold", type=_below_one,
                         default=None)
    p_chaos.add_argument("--base-seed", type=_seed, default=0)
    p_chaos.add_argument("--workers", type=_positive_int, default=1,
                         help="worker processes (default: serial); "
                              "results are identical for any count")
    p_chaos.add_argument("--out", type=str, default=None,
                         help="export manifest, results.jsonl and the "
                              "plan files here")

    p_serve = sub.add_parser(
        "serve",
        help="multi-tenant trust-session HTTP service (see docs/service.md)",
    )
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument("--port", type=_port, default=8337,
                         help="0 binds an ephemeral port")
    p_serve.add_argument("--mode", choices=("binary", "location"),
                         default="location",
                         help="session template: decision mode")
    p_serve.add_argument("--nodes", type=_positive_int, default=36,
                         help="session template: nodes per cluster grid")
    p_serve.add_argument("--field-side", type=_positive_float, default=60.0)
    p_serve.add_argument("--sensing-radius", type=_positive_float,
                         default=20.0)
    p_serve.add_argument("--r-error", type=_positive_float, default=5.0)
    p_serve.add_argument("--lambda", dest="lam", type=_positive_float,
                         default=0.25, help="TI decay rate")
    p_serve.add_argument("--fault-rate", type=_below_one, default=0.1)
    p_serve.add_argument("--baseline", action="store_true",
                         help="stateless majority voting instead of TIBFIT")
    p_serve.add_argument("--diagnosis-threshold", type=_below_one,
                         default=None)
    p_serve.add_argument("--max-sessions", type=_int_at_least(0),
                         default=100_000,
                         help="LRU-evict idle sessions beyond this (0 = "
                              "unbounded)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every request to stderr")

    p_an = sub.add_parser("analyze", help="closed-form analysis (§5)")
    an_sub = p_an.add_subparsers(dest="analysis", required=True)
    p_base = an_sub.add_parser("baseline", help="eqs. 1-3 curve")
    p_base.add_argument("--n", type=_positive_int, default=10)
    p_base.add_argument("--p", type=_probability, default=0.95)
    p_base.add_argument("--q", type=_probability, default=0.5)
    p_decay = an_sub.add_parser("decay", help="Fig.-11 roots and k_max")
    p_decay.add_argument("--n", type=_int_at_least(3), default=11)
    p_decay.add_argument(
        "--lambdas", type=_positive_float, nargs="+",
        default=[0.05, 0.1, 0.25, 0.5, 1.0],
    )
    return parser


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The ad-hoc simulation options shared by ``run`` and ``trace``."""
    parser.add_argument("--mode", choices=("binary", "location"),
                        default="location")
    parser.add_argument("--nodes", type=_positive_int, default=100)
    parser.add_argument("--percent-faulty", type=_percent, default=30.0)
    parser.add_argument("--level", type=int, choices=(0, 1, 2), default=0)
    parser.add_argument("--events", type=_positive_int, default=100)
    parser.add_argument("--baseline", action="store_true",
                        help="use majority voting instead of TIBFIT")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--sigma-correct", type=_sigma, default=None,
                        help="location mode only (default 1.6)")
    parser.add_argument("--sigma-faulty", type=_sigma, default=None,
                        help="location mode only (default 4.25)")
    parser.add_argument("--lambda", dest="lam", type=_positive_float,
                        default=0.25)
    parser.add_argument("--fault-rate", type=_below_one, default=0.1)
    parser.add_argument("--diagnosis-threshold", type=_below_one,
                        default=None)


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        sheet = Experiment1Config().as_table()
        title = "Table 1: Parameters for Experiment 1"
    else:
        sheet = Experiment2Config().as_table()
        title = "Table 2: Parameters for Experiment 2"
    print(render_parameter_sheet(sheet, title=title))
    return 0


def _figure_data(args: argparse.Namespace) -> Dict[str, Series]:
    n = args.number
    trials = 2 if args.trials is None else args.trials
    seed = 2005 if args.seed is None else args.seed
    workers = 1 if args.workers is None else args.workers
    if n in (2, 3):
        config = Experiment1Config(trials=trials, seed=seed)
        if args.events is not None:
            config = replace(config, events_per_run=args.events)
        return (experiment1.figure2_data if n == 2
                else experiment1.figure3_data)(config, workers=workers)
    if n in (4, 5, 6, 7):
        config = Experiment2Config(trials=trials, seed=seed)
        if args.events is not None:
            config = replace(config, events_per_run=args.events)
        if n == 7:
            config = replace(config, concurrent_batch=2)
        fn = {
            4: experiment2.figure4_data,
            5: experiment2.figure5_data,
            6: experiment2.figure6_data,
            7: experiment2.figure7_data,
        }[n]
        return fn(config, workers=workers)
    if n in (8, 9):
        config = Experiment3Config(trials=trials, seed=seed)
        return (experiment3.figure8_data if n == 8
                else experiment3.figure9_data)(config, workers=workers)
    if n == 10:
        from repro.analysis.voting import figure10_series

        out: Dict[str, Series] = {}
        for p, curve in sorted(figure10_series().items(), reverse=True):
            series = Series(label=f"p={p:g}")
            for percent, value in curve:
                series.add(percent, [value])
            out[series.label] = series
        return out
    # n == 11
    from repro.analysis.decay import figure11_series

    out = {}
    for lam, curve in figure11_series().items():
        series = Series(label=f"lambda={lam:g}")
        for k, f in curve:
            series.add(k, [f])
        out[series.label] = series
    return out


def _cmd_fig(args: argparse.Namespace) -> int:
    data = _figure_data(args)
    x_label = {8: "events", 9: "events", 11: "k"}.get(args.number, "% faulty")
    print(f"Figure {args.number}")
    print(render_series_table(data, x_label=x_label))
    return 0


def _build_adhoc_run(
    args: argparse.Namespace, spans: bool = False, journal: bool = False
) -> SimulationRun:
    """Assemble the ``run``/``trace`` ad-hoc simulation from CLI options."""
    n_faulty = round(args.nodes * args.percent_faulty / 100.0)
    rng = np.random.default_rng(args.seed + 12345)
    faulty = tuple(
        int(x) for x in rng.choice(args.nodes, size=n_faulty, replace=False)
    )
    field_side = 10.0 * np.sqrt(args.nodes)
    # main() refuses the sigmas in binary mode.  Binary liars still get
    # the location default: their unread location draws advance their
    # streams.
    sigma_correct = 1.6 if args.sigma_correct is None else args.sigma_correct
    sigma_faulty = 4.25 if args.sigma_faulty is None else args.sigma_faulty
    return SimulationRun(
        mode=args.mode,
        n_nodes=args.nodes,
        field_side=float(field_side),
        sensing_radius=(field_side * 2 if args.mode == "binary" else 20.0),
        r_error=5.0,
        lam=args.lam,
        fault_rate=args.fault_rate,
        use_trust=not args.baseline,
        correct_spec=CorrectSpec(
            sigma=sigma_correct if args.mode == "location" else 0.0,
            miss_rate=0.01 if args.mode == "binary" else 0.0,
        ),
        fault_spec=FaultSpec(
            level=args.level,
            drop_rate=0.5 if args.mode == "binary" else 0.25,
            false_alarm_rate=0.1 if args.mode == "binary" else 0.0,
            sigma=sigma_faulty,
        ),
        faulty_ids=faulty,
        channel_loss=0.008 if args.mode == "location" else 0.0,
        diagnosis_threshold=args.diagnosis_threshold,
        seed=args.seed,
        spans=spans,
        journal=journal,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    run = _build_adhoc_run(args)
    run.run(args.events)
    metrics = run.metrics()

    system = "Baseline (majority)" if args.baseline else "TIBFIT"
    rows = [
        ("system", system),
        ("mode", args.mode),
        ("nodes", str(args.nodes)),
        ("% faulty", f"{args.percent_faulty:g} (level {args.level})"),
        ("events", str(metrics.events_total)),
        ("accuracy", f"{metrics.accuracy:.3f}"),
    ]
    if metrics.mean_localisation_error is not None:
        rows.append(
            ("mean localisation error",
             f"{metrics.mean_localisation_error:.3f}")
        )
    rows.append(("false positives", str(metrics.false_positive_decisions)))
    if args.diagnosis_threshold is not None:
        rows.append(("diagnosed nodes", str(len(metrics.diagnosed_nodes))))
        rows.append(("diagnosis recall", f"{metrics.diagnosis_recall:.3f}"))
    print(render_table(["metric", "value"], rows))
    return 0


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(values: np.ndarray, width: int) -> str:
    """Render values in [0, 1] as a fixed-width block-character strip."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return ""
    if values.size > width:
        idx = np.linspace(0, values.size - 1, width).round().astype(int)
        values = values[idx]
    clipped = np.clip(values, 0.0, 1.0)
    levels = np.minimum(
        (clipped * (len(_SPARK_CHARS) - 1) + 0.5).astype(int),
        len(_SPARK_CHARS) - 1,
    )
    return "".join(_SPARK_CHARS[level] for level in levels)


def _render_metrics(records: List[Dict[str, object]]) -> str:
    """Terminal table of metrics records."""
    rows = []
    for record in records:
        kind = record["type"]
        if kind in ("counter", "gauge"):
            detail = f"{record['value']:g}"
        else:
            detail = (
                f"n={record['count']} mean={record['mean']:.6g} "
                f"p50={record['p50']:.6g} p90={record['p90']:.6g}"
            )
        rows.append((str(record["name"]), str(kind), detail))
    return render_table(["instrument", "type", "value"], rows)


def _ti_history(
    run: SimulationRun,
) -> Tuple[List[Dict[int, float]], TrustSession]:
    """The run's TI maps at t=0, after every decision and at the end.

    Replays the session journal of the run's one head through a fresh
    session, which also rebuilds the head's diagnoser log.
    """
    session = TrustSession(
        run.ch.deployment, replace(run.ch.session.config, journal=False)
    )
    samples = [session.tis()]
    for record in run.session_journal():
        for _ in session.replay_window(record):
            samples.append(session.tis())
    samples.append(session.tis())
    return samples, session


def _cmd_trace(args: argparse.Namespace) -> int:
    run = _build_adhoc_run(args, spans=True, journal=True)
    run.run(args.events)
    metrics = run.metrics()
    samples, replay = _ti_history(run)

    system = "Baseline (majority)" if args.baseline else "TIBFIT"
    print(render_table(["metric", "value"], [
        ("system", system),
        ("mode", args.mode),
        ("nodes", str(args.nodes)),
        ("% faulty", f"{args.percent_faulty:g} (level {args.level})"),
        ("events", str(metrics.events_total)),
        ("accuracy", f"{metrics.accuracy:.3f}"),
        ("TI samples", str(len(samples))),
    ]))

    faulty = set(run.initial_faulty)
    diagnosis_times = (
        {} if replay.diagnoser is None
        else {entry.node_id: entry.time for entry in replay.diagnoser.log}
    )
    final = samples[-1]
    node_ids = sorted({node for sample in samples for node in sample})
    if len(node_ids) > args.max_nodes:
        node_ids.sort(key=lambda n: (final.get(n, 1.0), n))
        shown = node_ids[: args.max_nodes]
        print(
            f"\nTI trajectories ({len(shown)} lowest-final-TI of "
            f"{len(node_ids)} nodes; * = injected-faulty):"
        )
    else:
        shown = sorted(node_ids)
        print("\nTI trajectories (* = injected-faulty):")
    for node in shown:
        tis = [sample.get(node, 1.0) for sample in samples]
        flag = "*" if node in faulty else " "
        line = (
            f"  node {node:>4}{flag} {_sparkline(tis, args.width)} "
            f"final={final.get(node, 1.0):.3f}"
        )
        if node in diagnosis_times:
            line += f" diagnosed@t={diagnosis_times[node]:g}"
        print(line)

    records = run.instruments()
    values = {record["name"]: record.get("value") for record in records}
    print("\ndecision timeline:")
    occurred = values["ch.decision.occurred"]
    rejected = values["ch.decision.rejected"]
    print(
        f"  {len(run.ch.decisions)} decisions "
        f"({occurred:g} occurred, {rejected:g} rejected)"
    )
    if run.ch.diagnoser is not None:
        for entry in run.ch.diagnoser.log:
            print(
                f"  t={entry.time:g}: node {entry.node_id} diagnosed "
                f"(TI={entry.ti_at_diagnosis:.4f})"
            )
        if not run.ch.diagnoser.log:
            print("  no nodes diagnosed")
    else:
        print("  diagnosis disabled (no --diagnosis-threshold)")

    print("\nmetrics:")
    print(_render_metrics(records))

    print(
        f"\nspans: {run.spans.emitted} emitted, "
        f"{run.spans.evicted} evicted "
        f"(explain with: tibfit-repro explain OUT --decision ID)"
    )

    if args.out is not None:
        paths = run.export_artifacts(args.out)
        print("\nartifacts:")
        for name in sorted(paths):
            print(f"  {name}: {paths[name]}")
    return 0


def _format_ti_group(nodes: Sequence[int], tis: Sequence[float]) -> str:
    """``7(0.98), 12(0.95), ...`` -- per-supporter CTI contributions."""
    if not nodes:
        return "(empty)"
    return ", ".join(
        f"{node}({ti:.3f})" for node, ti in zip(nodes, tis)
    )


def _render_explanation(prov: Dict[str, object]) -> str:
    """Terminal rendering of one decision's provenance chain."""
    lines: List[str] = []
    verdict = "EVENT" if prov["occurred"] else "no event"
    where = ""
    if prov["location"] is not None:
        where = (
            f" at ({prov['location'][0]:.2f}, {prov['location'][1]:.2f})"
        )
    lines.append(
        f"decision {prov['decision_id']} @ t={prov['time']:g}: "
        f"{verdict}{where}"
    )
    lines.append(
        f"  supporters: {prov['supporters']}  "
        f"dissenters: {prov['dissenters']}"
    )

    window = prov.get("window")
    if window is not None:
        circles = window["circles"]
        label = "binary window" if circles == [-1] else f"circles {circles}"
        lines.append(
            f"  window: closed @ t={window['time']:g} with "
            f"{window['reports']} report(s) ({label})"
        )
        gate = window.get("filter")
        if gate is not None:
            lines.append(
                f"    plausibility gate: kept {gate['kept']}, "
                f"gated {gate['gated']}"
            )

    cluster = prov.get("cluster")
    if cluster is not None:
        lines.append(
            f"  cluster: centre=({cluster['x']:.2f}, {cluster['y']:.2f}) "
            f"members={cluster['members']} "
            f"dissenters={cluster['dissenters']}"
        )

    evidence = prov.get("evidence") or []
    if evidence:
        lines.append("  evidence (event -> report -> radio -> window):")
        for item in evidence:
            origin = (
                "quiet window" if item["quiet"]
                else f"event {item['event_id']}"
            )
            hops = " -> ".join(
                f"{name}#{item[key]}"
                for name, key in (
                    ("report", "report_span"),
                    ("transmit", "transmit_span"),
                    ("deliver", "deliver_span"),
                    ("window", "window_report_span"),
                )
                if item[key] is not None
            )
            lines.append(
                f"    node {item['node']}: {origin}, "
                f"message {item['message_id']}: {hops}"
            )
    dropped = prov.get("dropped_reports") or []
    for item in dropped:
        lines.append(
            f"    node {item['node']}: message {item['message_id']} "
            f"DROPPED ({item['reason']})"
        )

    vote = prov.get("vote")
    if vote is not None:
        winner = "R" if vote["cti_r"] > vote["cti_nr"] else "NR"
        if vote["tie"]:
            winner = "tie"
        lines.append(
            f"  vote: CTI(R)={vote['cti_r']:.4f} vs "
            f"CTI(NR)={vote['cti_nr']:.4f} -> {winner}"
        )
        lines.append(
            "    R : "
            + _format_ti_group(vote["reporters"], vote["ti_r"])
        )
        lines.append(
            "    NR: "
            + _format_ti_group(vote["non_reporters"], vote["ti_nr"])
        )

    trust = prov.get("trust") or {}
    for key, label in (
        ("rewarded", "rewarded"),
        ("penalized", "penalized"),
        ("gate_penalized", "gate-penalized"),
    ):
        transition = trust.get(key)
        if transition:
            lines.append(
                f"  {label}: "
                + _format_ti_group(transition["nodes"], transition["ti"])
            )

    for diagnosis in prov.get("diagnoses") or []:
        lines.append(
            f"  DIAGNOSED: node {diagnosis['node']} "
            f"(TI={diagnosis['ti']:.4f})"
        )
    announcement = prov.get("announcement")
    if announcement is not None:
        lines.append(
            f"  announcement: {announcement['transmits']} transmit(s), "
            f"{announcement['dropped']} dropped"
        )
    return "\n".join(lines)


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.export import SchemaError, read_jsonl, validate_span_record
    from repro.obs.provenance import ProvenanceIndex

    spans_path = Path(args.run_dir) / "spans.jsonl"
    if not spans_path.exists():
        print(
            f"no spans.jsonl in {args.run_dir} -- export one with "
            "'tibfit-repro trace --out DIR'",
            file=sys.stderr,
        )
        return 2
    try:
        records = read_jsonl(spans_path)
    except SchemaError as exc:  # names the file and line
        print(exc, file=sys.stderr)
        return 2
    for record in records:
        try:
            validate_span_record(record)
        except SchemaError as exc:
            print(f"{spans_path}: {exc}", file=sys.stderr)
            return 2
    index = ProvenanceIndex(records)

    if args.node is not None:
        hits = index.node_view(args.node)
        if not hits:
            print(f"node {args.node}: no spans name this node")
            return 1
        print(f"node {args.node}: {len(hits)} span(s)")
        for record in hits:
            detail = " ".join(
                f"{key}={value}"
                for key, value in sorted(record["args"].items())
            )
            print(
                f"  t={record['time']:<8g} #{record['id']:<6} "
                f"{record['category']:<16} {detail}"
            )
        return 0

    if args.decision is not None:
        try:
            prov = index.decision_provenance(args.decision)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(_render_explanation(prov))
        return 0

    decision_ids = index.decision_ids()
    if not decision_ids:
        print("no decisions recorded in this run")
        return 1
    print(f"{len(decision_ids)} decision(s); use --decision ID for detail")
    for decision_id in decision_ids:
        span = index.span(index.decisions[decision_id])
        args_ = span["args"]
        verdict = "EVENT   " if args_["occurred"] else "no event"
        print(
            f"  {decision_id:>5} t={span['time']:<8g} {verdict} "
            f"supporters={len(args_['supporters'])} "
            f"dissenters={len(args_['dissenters'])}"
        )
    return 0


def _cmd_rotate(args: argparse.Namespace) -> int:
    from repro.clusterctl.leach import LeachConfig

    n_faulty = round(args.nodes * args.percent_faulty / 100.0)
    rng = np.random.default_rng(args.seed + 54321)
    faulty = tuple(
        int(x) for x in rng.choice(args.nodes, size=n_faulty, replace=False)
    )
    field_side = float(10.0 * np.sqrt(args.nodes))
    run = SimulationRun(
        n_nodes=args.nodes,
        field_side=field_side,
        sensing_radius=20.0,
        r_error=5.0,
        use_trust=not args.baseline,
        fault_spec=FaultSpec(level=args.level, drop_rate=0.25, sigma=4.25),
        correct_spec=CorrectSpec(sigma=1.6),
        faulty_ids=faulty,
        quiet_windows=False,
        seed=args.seed,
        rotation=Rotation(
            leach=LeachConfig(ch_fraction=0.05, ti_threshold=0.5),
            events_per_leadership=args.events_per_round,
            transfer_trust=not args.no_transfer,
        ),
    )
    run.run(args.rounds * args.events_per_round)
    metrics = run.metrics()
    registry = run.trust_snapshot()
    faulty_set = set(faulty)
    honest = [ti for n, ti in registry.items() if n not in faulty_set]
    lying = [ti for n, ti in registry.items() if n in faulty_set]
    rows = [
        ("system", "Baseline" if args.baseline else "TIBFIT"),
        ("trust hand-off", "off (amnesia)" if args.no_transfer else "on"),
        ("leadership rounds", str(len(run.rounds))),
        ("distinct leaders",
         str(len({ch for r in run.rounds for ch in r.cluster_heads}))),
        ("events", str(metrics.events_total)),
        ("accuracy", f"{metrics.accuracy:.3f}"),
    ]
    if honest:
        rows.append(
            ("mean honest registry TI",
             f"{sum(honest) / len(honest):.3f}")
        )
    if lying:
        rows.append(
            ("mean compromised registry TI",
             f"{sum(lying) / len(lying):.3f}")
        )
    print(render_table(["metric", "value"], rows))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.campaign import (
        CampaignConfig,
        export_campaign,
        resolve_plans,
        run_campaign,
        summarise,
    )
    from repro.chaos.plan import builtin_plans

    config = CampaignConfig(
        n_nodes=args.nodes,
        n_rounds=args.rounds,
        fault_fraction=args.percent_faulty / 100.0,
        diagnosis_threshold=args.diagnosis_threshold,
        base_seed=args.base_seed,
    )
    if args.list_plans:
        for name, plan in sorted(
            builtin_plans(config.horizon, config.n_nodes).items()
        ):
            print(
                f"{name:<12} windows={len(plan.windows)} "
                f"outages={len(plan.outages)} "
                f"partitions={len(plan.partitions)} "
                f"ch_crashes={len(plan.ch_crashes)}"
            )
        return 0
    plans = resolve_plans(
        [p.strip() for p in args.plans.split(",") if p.strip()], config
    )
    results = run_campaign(
        plans, range(args.seeds), config, workers=args.workers
    )
    print(summarise(results))
    if args.out is not None:
        paths = export_campaign(results, plans, config, args.out)
        print("\nartifacts:")
        for name in sorted(paths):
            print(f"  {name}: {paths[name]}")
    return 1 if any(r.violations for r in results) else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.analysis == "baseline":
        curve = success_curve(args.n, args.p, args.q)
        print(render_table(
            ["faulty nodes (m)", "% faulty", "P(success)"],
            [(str(m), f"{100 * m / args.n:.0f}%", f"{p:.4f}")
             for m, p in curve],
        ))
        return 0
    rows = []
    for lam in args.lambdas:
        root = solve_k(lam, args.n)
        rows.append(
            (f"{lam:g}",
             "inf" if root == float("inf") else f"{root:.3f}",
             f"{k_max(lam):.3f}")
        )
    print(render_table(
        ["lambda", "k* (events per tolerable compromise)",
         "k_max = ln(3)/lambda"],
        rows,
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.trust import TrustParameters
    from repro.service.http_api import ServiceConfig, serve

    config = ServiceConfig(
        mode=args.mode,
        n_nodes=args.nodes,
        field_side=args.field_side,
        sensing_radius=args.sensing_radius,
        r_error=args.r_error,
        trust=TrustParameters(lam=args.lam, fault_rate=args.fault_rate),
        use_trust=not args.baseline,
        diagnosis_threshold=args.diagnosis_threshold,
        max_sessions=args.max_sessions,
    )
    server, _manager = serve(
        config, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    print(
        f"tibfit-repro serving {config.mode} sessions on "
        f"http://{host}:{port} (max {config.max_sessions or 'unbounded'} "
        f"sessions)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "fig":
        for flag in _FIG_REFUSES.get(args.number, ()):
            if getattr(args, flag[2:]) is not None:
                parser.error(
                    f"argument {flag}: figure {args.number} takes no {flag}"
                )
    if args.command in ("run", "trace") and args.mode == "binary":
        # A binary verdict never reads a report's location.
        for flag, value in (("--sigma-correct", args.sigma_correct),
                            ("--sigma-faulty", args.sigma_faulty)):
            if value is not None:
                parser.error(f"argument {flag}: binary mode takes no {flag}")
    if (
        args.command in ("run", "trace", "serve")
        and args.baseline
        and args.diagnosis_threshold is not None
    ):
        parser.error(
            "argument --diagnosis-threshold: --baseline keeps no trust "
            "to diagnose from"
        )
    handler = {
        "table": _cmd_table,
        "fig": _cmd_fig,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "explain": _cmd_explain,
        "rotate": _cmd_rotate,
        "analyze": _cmd_analyze,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``... | head``): its normal end, not
        # an error to report.  Point fd 1 at devnull so the interpreter's
        # exit-time flush of what is still buffered cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
