"""Unit tests for the metrics records: one kind of tally at a time, then a
set of names.

``repro.obs.export.metrics_records`` writes every ``metrics.jsonl``
record straight from the tallies it is given; these tests keep the
names they had when an in-memory registry stood between the two.
"""

import pytest

from repro.obs.export import metrics_records, validate_metrics_record


class TestInstruments:
    def test_counter_increments(self):
        (record,) = metrics_records({"hits": 4}, {}, {})
        assert record == {"name": "hits", "type": "counter", "value": 4}
        assert type(record["value"]) is int

    def test_gauge_keeps_last_value(self):
        (record,) = metrics_records({}, {"depth": 3}, {})
        assert record == {"name": "depth", "type": "gauge", "value": 3.0}
        assert type(record["value"]) is float

    def test_histogram_exact_aggregates(self):
        (record,) = metrics_records({}, {}, {"margin": [2.0, 8.0, 5.0]})
        assert record["count"] == 3
        assert record["sum"] == 15.0
        assert record["mean"] == 5.0
        assert record["min"] == 2.0
        assert record["max"] == 8.0
        assert record["p50"] == 5.0

    def test_empty_histogram_snapshot_has_no_quantiles(self):
        # An empty histogram has no mean, and NaN is not strict JSON.
        assert metrics_records({}, {}, {"empty": []}) == []

    def test_histogram_quantiles_nearest_rank(self):
        values = [float(v) for v in range(10, 0, -1)]
        (record,) = metrics_records({}, {}, {"q": values})
        assert (record["p50"], record["p90"], record["p99"]) == (5.0, 9.0, 10.0)
        assert (record["min"], record["max"]) == (1.0, 10.0)


class TestRegistry:
    def test_type_conflict_rejected(self):
        with pytest.raises(ValueError, match=r"two kinds: \['x'\]"):
            metrics_records({"x": 1}, {"x": 1.0}, {})
        with pytest.raises(ValueError, match=r"two kinds: \['y'\]"):
            metrics_records({}, {"y": 1.0}, {"y": [1.0]})

    def test_snapshot_sorted_by_name(self):
        records = metrics_records({"z": 1, "b": 2}, {"a": 1.0}, {"c": [1.0]})
        assert [record["name"] for record in records] == ["a", "b", "c", "z"]

    def test_no_truncation_means_no_truncated_counter(self):
        # Past 8,192 values (the size of the sample the quantiles were
        # once read from) every aggregate and quantile is still exact.
        n = 8_192 + 100
        records = metrics_records({}, {}, {"big": [float(v) for v in range(n)]})
        assert [record["name"] for record in records] == ["big"]
        (record,) = records
        validate_metrics_record(record)
        assert "truncated" not in record
        assert (record["count"], record["min"], record["max"]) == (
            n, 0.0, float(n - 1),
        )
        assert (record["p50"], record["p90"], record["p99"]) == (
            4145.0, 7462.0, 8209.0,
        )
