"""Unit tests for the §5 baseline voting analysis (eqs. 1-3, Fig. 10)."""

import math

import pytest

from repro.analysis.voting import (
    baseline_success_probability,
    figure10_series,
    success_curve,
)


class TestClosedFormIdentities:
    def test_no_faulty_nodes_reduces_to_binomial_tail(self):
        """With m = 0, P(success) = P(Binomial(N, p) >= majority)."""
        n, p = 10, 0.9
        majority = n // 2 + 1
        expected = sum(
            math.comb(n, k) * p**k * (1 - p) ** (n - k)
            for k in range(majority, n + 1)
        )
        assert baseline_success_probability(n, 0, p, 0.5) == pytest.approx(
            expected
        )

    def test_all_faulty_reduces_to_binomial_tail_in_q(self):
        n, q = 10, 0.5
        majority = n // 2 + 1
        expected = sum(
            math.comb(n, k) * q**k * (1 - q) ** (n - k)
            for k in range(majority, n + 1)
        )
        assert baseline_success_probability(n, n, 0.99, q) == pytest.approx(
            expected
        )

    def test_perfect_nodes_always_succeed(self):
        assert baseline_success_probability(10, 0, 1.0, 0.5) == 1.0

    def test_mute_nodes_never_succeed(self):
        assert baseline_success_probability(10, 0, 0.0, 0.5) == 0.0

    def test_symmetry_between_populations(self):
        """Swapping (m, q) with (N - m, p) leaves P unchanged: the
        convolution does not care which binomial is which."""
        a = baseline_success_probability(10, 3, 0.9, 0.4)
        b = baseline_success_probability(10, 7, 0.4, 0.9)
        assert a == pytest.approx(b)

    def test_probability_in_unit_interval(self):
        for m in range(11):
            p = baseline_success_probability(10, m, 0.95, 0.5)
            assert 0.0 <= p <= 1.0

    def test_monotone_decreasing_in_faulty_count(self):
        """More faulty nodes (q < p) can only hurt."""
        values = [
            baseline_success_probability(10, m, 0.95, 0.3)
            for m in range(11)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12

    def test_monotone_increasing_in_p(self):
        values = [
            baseline_success_probability(10, 4, p, 0.5)
            for p in (0.5, 0.7, 0.9, 0.99)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-12


class TestValidation:
    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            baseline_success_probability(0, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            baseline_success_probability(10, 11, 0.5, 0.5)
        with pytest.raises(ValueError):
            baseline_success_probability(10, 2, 1.5, 0.5)
        with pytest.raises(ValueError):
            baseline_success_probability(10, 2, 0.5, -0.1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_success_curve_needs_a_neighbour(self, n):
        # A negative count used to give an empty curve, not an error.
        with pytest.raises(ValueError, match="n_neighbors must be positive"):
            success_curve(n, 0.95, 0.5)


class TestFigure10:
    def test_series_cover_requested_p_values(self):
        series = figure10_series()
        assert set(series.keys()) == {0.99, 0.95, 0.90, 0.85}
        for curve in series.values():
            assert len(curve) == 11  # m = 0..10
            assert curve[0][0] == 0.0 and curve[-1][0] == 100.0

    def test_cliff_after_half_compromised(self):
        """Fig. 10's headline: accuracy falls steeply past 50% faulty."""
        series = figure10_series()[0.99]
        at = dict(series)
        # Nearly perfect through 40% compromised...
        assert at[40.0] > 0.95
        # ...then a steep, accelerating fall: each decade past 50%
        # loses more than ten points.
        assert at[50.0] - at[60.0] > 0.05
        assert at[60.0] - at[70.0] > 0.10
        assert at[70.0] - at[80.0] > 0.10
        assert at[90.0] < 0.55
        # The fall from 40% to 90% spans about fifty points.
        assert at[40.0] - at[90.0] > 0.45

    def test_lower_p_shifts_curves_down(self):
        series = figure10_series()
        for percent_index in range(3, 8):
            assert (
                series[0.99][percent_index][1]
                >= series[0.85][percent_index][1]
            )

    def test_success_curve_helper(self):
        curve = success_curve(10, 0.95, 0.5)
        assert len(curve) == 11
        assert curve[0] == (0, pytest.approx(
            baseline_success_probability(10, 0, 0.95, 0.5)))

    def test_crossover_detection(self):
        """The p = 0.99 curve first falls below 0.8 at some m in 5..8;
        liars that always report the event never pull it below 0.5."""
        below = [m for m, p in success_curve(10, 0.99, 0.5) if p < 0.8]
        assert 5 <= below[0] <= 8
        assert all(p >= 0.5 for _m, p in success_curve(10, 1.0, 1.0))
