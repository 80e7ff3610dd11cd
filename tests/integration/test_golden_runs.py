"""Golden-run regression suite.

Each test re-runs one fixed-seed experiment point through the
production code path and asserts the result is *bit-identical* to the
committed fixture -- every float compared exactly, no tolerances.  A
failure here means behaviour drifted: either fix the regression, or, if
the change is intentional, regenerate with ``make golden-save`` and
commit the reviewed diff.
"""

from __future__ import annotations

import builtins
import json
from pathlib import Path

import pytest

from tests.golden.builders import BUILDERS

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "golden"


def _load(name: str):
    path = FIXTURE_DIR / f"{name}.json"
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; run `make golden-save`"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_golden_run_is_bit_identical(name):
    expected = _load(name)
    actual = BUILDERS[name]()
    assert actual == expected, (
        f"golden run {name!r} drifted from its fixture; if the change "
        "is intentional, regenerate with `make golden-save` and commit "
        "the diff"
    )


def test_fixture_floats_roundtrip():
    # The bit-identity contract rests on json floats round-tripping
    # exactly; guard the serialisation layer itself.
    for name in BUILDERS:
        doc = _load(name)
        assert json.loads(json.dumps(doc)) == doc


def test_golden_builders_make_no_float_sums(monkeypatch):
    """No pinned number may rest on ``sum()`` over floats.

    CPython 3.12 made ``sum()`` of floats compensated, so a float sum
    on a pinned path would give different bits on different
    interpreters.  Pinned float totals are left-to-right loops instead;
    this guard fails on 3.11 as soon as one slips back in.
    """
    real_sum = builtins.sum
    calls = []

    def exact_sum(iterable, /, start=0):
        items = list(iterable)
        floats = [x for x in (start, *items) if isinstance(x, float)]
        assert not floats, f"sum() over floats on a pinned path: {floats[:3]}"
        calls.append(len(items))
        return real_sum(items, start)

    monkeypatch.setattr(builtins, "sum", exact_sum)
    for name in sorted(BUILDERS):
        BUILDERS[name]()
    assert calls, "the guard saw no sum() call at all"
