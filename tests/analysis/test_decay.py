"""Unit tests for the §5 decay analysis (Fig. 11, k_max)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.decay import (
    decay_expression,
    figure11_series,
    k_max,
    solve_k,
    sweep_lambda,
)


class TestDecayExpression:
    def test_value_at_zero_is_zero(self):
        assert decay_expression(0.0, 0.25, 11) == pytest.approx(0.0)

    def test_limit_at_infinity_is_one(self):
        assert decay_expression(1e9, 0.25, 11) == pytest.approx(1.0)

    def test_matches_paper_form(self):
        k, lam, n = 3.0, 0.25, 11
        expected = (
            math.exp(-k * lam * (n - 1)) - 2 * math.exp(-k * lam) + 1
        )
        assert decay_expression(k, lam, n) == expected

    def test_negative_region_exists_for_moderate_k(self):
        """Between the trivial root at 0 and the break-even root the
        expression dips negative: those cadences are tolerable."""
        assert decay_expression(1.0, 0.25, 11) < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_expression(1.0, 0.0, 11)
        with pytest.raises(ValueError):
            decay_expression(1.0, 0.25, 2)

    def test_refuses_non_finite_lambda(self):
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                decay_expression(5.0, lam, 10)


class TestRootSolving:
    def test_root_zeroes_the_expression(self):
        for lam in (0.1, 0.25, 0.5):
            k_star = solve_k(lam, 11)
            assert decay_expression(k_star, lam, 11) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_root_decreases_with_lambda(self):
        """§5: larger lambda tolerates more frequent compromise (smaller
        break-even spacing k*)."""
        pairs = sweep_lambda([0.05, 0.1, 0.25, 0.5, 1.0])
        ks = [k for _lam, k in pairs]
        for earlier, later in zip(ks, ks[1:]):
            assert later < earlier

    def test_root_scales_inversely_with_lambda(self):
        """k* = -ln(x*)/lambda with x* independent of lambda, so
        k*(lam1) * lam1 == k*(lam2) * lam2."""
        k1 = solve_k(0.1, 11)
        k2 = solve_k(0.4, 11)
        assert k1 * 0.1 == pytest.approx(k2 * 0.4, rel=1e-9)

    def test_three_node_network_has_no_finite_root(self):
        assert solve_k(0.25, 3) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_k(0.0, 11)
        with pytest.raises(ValueError):
            solve_k(0.25, 2)

    def test_refuses_non_finite_lambda(self):
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_k(lam, 10)


class TestKMax:
    def test_formula(self):
        assert k_max(0.25) == pytest.approx(math.log(3.0) / 0.25)

    def test_endgame_bound_releases_one_more_node(self):
        """After k_max rounds the three remaining correct nodes' lead
        (CTI 3 vs just under 3) shrinks to just under 1: 3 e^{-k lam}
        hits 1 exactly at k_max."""
        lam = 0.25
        assert 3.0 * math.exp(-k_max(lam) * lam) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            k_max(0.0)

    def test_refuses_non_finite_lambda(self):
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                k_max(lam)


class TestFigure11:
    def test_series_has_one_curve_per_lambda(self):
        series = figure11_series(lambdas=(0.1, 0.25))
        assert set(series.keys()) == {0.1, 0.25}

    def test_each_curve_crosses_zero_at_its_root(self):
        series = figure11_series(lambdas=(0.25,), n_nodes=11)
        curve = series[0.25]
        k_star = solve_k(0.25, 11)
        before = [f for k, f in curve if k < k_star - 0.5]
        after = [f for k, f in curve if k > k_star + 0.5]
        assert all(f < 0 for f in before if f != 0)
        assert all(f > 0 for f in after)

    def test_larger_lambda_crosses_earlier(self):
        series = figure11_series(lambdas=(0.1, 0.5), n_nodes=11)

        def crossing(curve):
            for k, f in curve:
                if f > 0:
                    return k
            return math.inf

        assert crossing(series[0.5]) < crossing(series[0.1])


class TestNumpyOnly:
    def test_analyze_decay_runs_with_scipy_blocked(self, tmp_path):
        """numpy is the only runtime dependency: the CLI, and the root
        solver behind ``analyze decay``, load and run without scipy."""
        (tmp_path / "scipy.py").write_text(
            'raise ImportError("scipy is blocked")\n'
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path), str(Path(repro.__file__).parents[1])]
        )

        def run(*argv):
            return subprocess.run(
                [sys.executable, *argv], capture_output=True, text=True,
                env=env, timeout=120,
            )

        assert run("-c", "import scipy").returncode != 0
        proc = run("-m", "repro", "analyze", "decay")
        assert proc.returncode == 0, proc.stderr
        assert "k_max = ln(3)/lambda" in proc.stdout
        assert "13.843" in proc.stdout  # k* at lambda = 0.05, N = 11
