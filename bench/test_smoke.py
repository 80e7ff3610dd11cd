"""Self-test of the benchmark at ``--smoke`` scale (about a minute).

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with::

    python3 -m pytest bench/test_smoke.py -q

It runs every workload untraced and traced through the same command line
the benchmark is driven with, and checks that every metric is emitted
with its unit, that each layer is called exactly where the workload
rationale says it is, and that the overhead-corrected traced wall time
is close to the untraced one.  It also checks that ``compare`` fails a
side B whose accuracy moved at an equal seed or whose runs failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Traced runs get longer so that their median covers several traced passes.
SECONDS = {0: "2", 1: "5"}


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--smoke", "--seed", "7", "--seconds", SECONDS[trace],
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, run(request.param, 0), run(request.param, 1)


def test_every_metric_is_emitted_with_its_unit(runs):
    _, plain, traced = runs
    for line, catalogue in ((plain, "end_to_end"), (traced, "per_layer")):
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[catalogue]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    for name in ("setup_s", "throughput", "p50_ms", "peak_rss_mb", "accuracy"):
        assert plain["metrics"][name]["value"] > 0


def test_layers_are_called_where_the_workloads_say(runs):
    workload, _, traced = runs
    value = {k: v["value"] for k, v in traced["metrics"].items()}
    assert (value["decision.windows"] > 0) == (workload != "fig_binary")
    assert (value["clustering.calls"] > 0) == (workload != "fig_binary")
    assert (value["clusterctl.elections"] > 0) == (workload == "rotating")
    assert (value["clusterctl.leach.self_share"] > 0) == (workload == "rotating")
    assert (value["simkernel.events"] > 0) == (workload != "service_http")
    assert (value["http.requests"] > 0) == (workload == "service_http")


def test_corrected_traced_wall_is_close_to_untraced(runs):
    # Full-scale traced runs hold this within 10% (bench/README.md).  A
    # smoke pass lasts under a second, so host contention alone moves it
    # by up to 15% here.
    _, _, traced = runs
    assert abs(traced["metrics"]["trace.corrected_error"]["value"]) < 0.20


def _result(directory: Path, digest: str = "d", failed: int = 0) -> Path:
    directory.mkdir()
    metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    doc = {
        "header": {"workload": "fig_binary", "trace": False, "seed": 1},
        "failed": failed,
        "checks": [["a check", True]],
        "metrics": metrics,
        "passes": [metrics],
        "accuracy_digest": digest,
    }
    (directory / "fig_binary-seed1-trace0.json").write_text(json.dumps(doc))
    return directory


@pytest.mark.parametrize("b, worse", [
    ({}, False),
    ({"digest": "other"}, True),  # accuracy moved at the same seed
    ({"failed": 1}, True),
])
def test_compare_flags_a_changed_accuracy_or_a_failure_on_side_b(
    tmp_path, b, worse
):
    a = _result(tmp_path / "a")
    b = _result(tmp_path / "b", **b)
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "compare", str(a), str(b)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == int(worse), out.stdout + out.stderr
