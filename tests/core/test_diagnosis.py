"""Unit tests for TI-threshold diagnosis and isolation."""

import pytest

from repro.core.diagnosis import FaultDiagnoser
from repro.core.trust import TrustParameters, TrustTable


def table_with_liar(lam=1.0, fr=0.1, n=5, liar=0, penalties=2):
    table = TrustTable(TrustParameters(lam=lam, fault_rate=fr),
                       node_ids=range(n))
    for _ in range(penalties):
        table.penalize(liar)
    return table


class TestDiagnosis:
    def test_distrusted_node_is_diagnosed(self):
        table = table_with_liar()
        diag = FaultDiagnoser(table, ti_threshold=0.5)
        fresh = diag.sweep(now=10.0)
        assert [e.node_id for e in fresh] == [0]
        assert diag.diagnosed == (0,)
        # A diagnosed node is isolated: it leaves every vote.
        assert diag.is_excluded(0) and not diag.is_excluded(1)
        assert fresh[0].time == 10.0
        assert fresh[0].ti_at_diagnosis < 0.5

    def test_sweep_reports_each_node_once(self):
        table = table_with_liar()
        diag = FaultDiagnoser(table, ti_threshold=0.5)
        assert len(diag.sweep()) == 1
        assert diag.sweep() == []  # already known

    def test_trusted_nodes_not_diagnosed(self):
        table = table_with_liar()
        diag = FaultDiagnoser(table, ti_threshold=0.5)
        diag.sweep()
        assert 1 not in diag.diagnosed

    def test_threshold_validation(self):
        table = table_with_liar()
        with pytest.raises(ValueError):
            FaultDiagnoser(table, ti_threshold=1.0)


class TestQualityMetrics:
    def test_log_accumulates_entries(self):
        table = table_with_liar(n=4)
        table.penalize(3)
        table.penalize(3)
        diag = FaultDiagnoser(table, ti_threshold=0.5)
        diag.sweep(now=1.0)
        assert len(diag.log) == 2
        assert {e.node_id for e in diag.log} == {0, 3}
