"""Unit tests for the TI time-series probe."""

import numpy as np
import pytest

from repro.core.diagnosis import FaultDiagnoser
from repro.core.trust import TrustParameters, TrustTable
from repro.obs.probes import TrustProbe
from repro.obs.registry import MetricsRegistry


def make_table(n=4, lam=0.25, fault_rate=0.1):
    return TrustTable(
        TrustParameters(lam=lam, fault_rate=fault_rate), range(n)
    )


class TestSampling:
    def test_samples_accumulate_in_order(self):
        table = make_table()
        probe = TrustProbe(table)
        probe.sample(0.0)
        table.penalize(1)
        probe.sample(5.0)
        assert probe.n_samples == 2
        assert probe.times().tolist() == [0.0, 5.0]

    def test_snapshots_are_isolated_copies(self):
        table = make_table()
        probe = TrustProbe(table)
        probe.sample(0.0)
        table.penalize(0)
        probe.sample(1.0)
        _, tis = probe.trajectory(0)
        assert tis[0] == 1.0
        assert tis[1] < 1.0

    def test_trajectory_values_match_table(self):
        table = make_table()
        probe = TrustProbe(table)
        for t in range(3):
            table.penalize(2)
            probe.sample(float(t))
        _, tis = probe.trajectory(2)
        assert tis[-1] == table.ti(2)
        assert np.all(np.diff(tis) < 0)  # strictly decaying under penalty

    def test_unseen_node_defaults_to_full_trust(self):
        table = make_table(n=2)
        probe = TrustProbe(table)
        probe.sample(0.0)
        _, tis = probe.trajectory(999)
        assert tis.tolist() == [1.0]

    def test_registry_side_effects(self):
        table = make_table()
        registry = MetricsRegistry(enabled=True)
        probe = TrustProbe(table, registry)
        table.penalize(0)
        probe.sample(1.0)
        assert registry.counter("probe.samples").value == 1

    def test_final_tis_empty_before_first_sample(self):
        probe = TrustProbe(make_table())
        assert probe.final_tis() == {}
        assert probe.node_ids() == ()


class TestCrossings:
    def test_crossing_time_uses_strict_less_than(self):
        table = make_table()
        probe = TrustProbe(table)
        probe.sample(0.0)
        threshold = table.ti(0)  # TI == threshold exactly: no crossing
        assert probe.crossing_time(0, threshold) is None

    def test_crossing_time_first_sample_below(self):
        table = make_table()
        probe = TrustProbe(table)
        probe.sample(0.0)
        for t in (1.0, 2.0, 3.0, 4.0):
            table.penalize(1)
            probe.sample(t)
        threshold = 0.7
        crossing = probe.crossing_time(1, threshold)
        assert crossing is not None
        times, tis = probe.trajectory(1)
        first_below = times[np.argmax(tis < threshold)]
        assert crossing == first_below

    def test_diagnosis_times_from_diagnoser(self):
        table = make_table()
        diagnoser = FaultDiagnoser(table, ti_threshold=0.6, isolate=False)
        probe = TrustProbe(table, diagnoser=diagnoser)
        for t in (1.0, 2.0, 3.0):
            table.penalize(3)
            diagnoser.sweep(t)
            probe.sample(t)
        times = probe.diagnosis_times()
        assert set(times) == {3}
        # the probe saw TI below threshold no later than the diagnosis
        assert probe.crossing_time(3, 0.6) == times[3]


class TestRecords:
    def test_sample_records_use_string_node_keys(self):
        table = make_table(n=2)
        probe = TrustProbe(table)
        probe.sample(0.0)
        records = list(probe.to_records())
        assert len(records) == 1
        assert records[0]["type"] == "sample"
        assert set(records[0]["tis"]) == {"0", "1"}

    def test_diagnosis_records_follow_samples(self):
        table = make_table()
        diagnoser = FaultDiagnoser(table, ti_threshold=0.9, isolate=True)
        probe = TrustProbe(table, diagnoser=diagnoser)
        table.penalize(0)
        diagnoser.sweep(4.0)
        probe.sample(4.0)
        kinds = [r["type"] for r in probe.to_records()]
        assert kinds == ["sample", "diagnosis"]
        diag = list(probe.to_records())[-1]
        assert diag["node"] == 0
        assert diag["time"] == 4.0
        assert diag["isolated"] is True
        assert diag["ti"] == pytest.approx(table.ti(0))

    def test_ti_values_roundtrip_bit_identical_through_json(self):
        import json

        table = make_table()
        probe = TrustProbe(table)
        for _ in range(7):
            table.penalize(1)
            table.reward(2)
        probe.sample(1.0)
        line = json.dumps(list(probe.to_records())[0])
        back = json.loads(line)
        assert {int(k): v for k, v in back["tis"].items()} == table.tis()
