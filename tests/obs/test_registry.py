"""Unit tests for the metrics registry."""

import pytest

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("hits")
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert c.snapshot() == {"name": "hits", "type": "counter", "value": 4}

    def test_gauge_keeps_last_value(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5
        assert g.snapshot()["value"] == 1.5

    def test_histogram_exact_aggregates(self):
        h = Histogram("margin")
        for v in (2.0, 8.0, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(15.0)
        assert snap["mean"] == pytest.approx(5.0)
        assert snap["min"] == 2.0
        assert snap["max"] == 8.0
        assert snap["p50"] == 5.0

    def test_empty_histogram_snapshot_has_no_quantiles(self):
        snap = Histogram("empty").snapshot()
        assert snap["count"] == 0
        assert "mean" not in snap  # NaN is not strict JSON
        assert "p50" not in snap and "min" not in snap

    def test_empty_histogram_mean_is_nan(self):
        import math

        assert math.isnan(Histogram("empty").mean)

    def test_empty_histogram_quantile_raises(self):
        with pytest.raises(ValueError, match="empty histogram 'empty'"):
            Histogram("empty").quantile(0.5)

    def test_histogram_quantiles_nearest_rank(self):
        h = Histogram("q")
        for v in range(1, 11):
            h.observe(float(v))
        assert h.quantile(0.5) == 5.0
        assert h.quantile(0.9) == 9.0
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 10.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_reservoir_truncates_quantiles_not_aggregates(self):
        from repro.obs import registry as mod

        h = Histogram("big")
        n = mod._RESERVOIR_MAX + 100
        for v in range(n):
            h.observe(float(v))
        assert h.count == n  # exact past the reservoir
        assert h.max == float(n - 1)
        assert h.truncated
        assert h.snapshot()["truncated"] is True


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.gauge("a").set(1.0)
        assert [r["name"] for r in reg.snapshot()] == ["a", "z"]

    def test_truncated_reservoirs_surface_as_counter(self):
        from repro.obs import registry as mod
        from repro.obs.registry import TRUNCATED_COUNTER

        reg = MetricsRegistry()
        small = reg.histogram("small")
        small.observe(1.0)
        big = reg.histogram("big")
        for v in range(mod._RESERVOIR_MAX + 1):
            big.observe(float(v))
        assert reg.truncated_names() == ["big"]
        records = {r["name"]: r for r in reg.snapshot()}
        assert records[TRUNCATED_COUNTER]["type"] == "counter"
        assert records[TRUNCATED_COUNTER]["value"] == 1
        # Repeat snapshots recompute rather than double-count.
        records = {r["name"]: r for r in reg.snapshot()}
        assert records[TRUNCATED_COUNTER]["value"] == 1

    def test_no_truncation_means_no_truncated_counter(self):
        from repro.obs.registry import TRUNCATED_COUNTER

        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        assert reg.truncated_names() == []
        assert TRUNCATED_COUNTER not in {
            r["name"] for r in reg.snapshot()
        }

