"""Unit tests for the experiment parameter sheets (Tables 1-2, Exp. 3)."""

import math

import pytest

from repro.experiments.config import (
    Experiment1Config,
    Experiment2Config,
    Experiment3Config,
)


class TestExperiment1Config:
    def test_defaults_match_table1(self):
        config = Experiment1Config()
        assert config.n_nodes == 10
        assert config.events_per_run == 100
        assert config.lam == 0.1
        assert config.faulty_miss_rate == 0.5
        assert config.percent_faulty_values[0] == 40.0
        assert config.percent_faulty_values[-1] == 90.0

    def test_fault_rate_defaults_to_ner(self):
        config = Experiment1Config(correct_ner=0.05)
        assert config.effective_fault_rate == 0.05

    def test_explicit_fault_rate_overrides(self):
        config = Experiment1Config(correct_ner=0.05, fault_rate=0.1)
        assert config.effective_fault_rate == 0.1

    def test_n_faulty_rounds_to_nearest(self):
        config = Experiment1Config()
        assert config.n_faulty(40.0) == 4
        assert config.n_faulty(45.0) == 4  # round-half-even on 4.5
        assert config.n_faulty(90.0) == 9

    def test_as_table_mirrors_paper_rows(self):
        rows = dict(Experiment1Config().as_table())
        assert rows["Type of Event"] == "Binary Event Model"
        assert "10 sensing nodes, 1 CH" in rows["Size of network"]
        assert rows["lambda"] == "0.1"

    def test_validation(self):
        with pytest.raises(ValueError):
            Experiment1Config(n_nodes=0)
        with pytest.raises(ValueError):
            Experiment1Config(correct_ner=1.0)
        with pytest.raises(ValueError):
            Experiment1Config(percent_faulty_values=(150.0,))
        with pytest.raises(ValueError):
            Experiment1Config(trials=0)


class TestExperiment2Config:
    def test_defaults_match_table2(self):
        config = Experiment2Config()
        assert config.n_nodes == 100
        assert config.field_side == 100.0
        assert config.r_error == 5.0
        assert config.lam == 0.25
        assert config.fault_rate == 0.1
        assert config.faulty_drop_rate == 0.25
        assert config.percent_faulty_values[-1] == 58.0

    def test_legend_follows_paper_format(self):
        config = Experiment2Config(
            fault_level=1, sigma_correct=2.0, sigma_faulty=6.0
        )
        assert config.legend("TIBFIT") == "Lvl 1 2-6 TIBFIT"

    def test_as_table_reports_fault_level(self):
        rows = Experiment2Config(fault_level=2).as_table()
        keys = [k for k, _v in rows]
        assert any("level 2" in k for k in keys)

    def test_validation(self):
        with pytest.raises(ValueError):
            Experiment2Config(fault_level=3)
        with pytest.raises(ValueError):
            Experiment2Config(channel_loss=1.0)
        with pytest.raises(ValueError):
            Experiment2Config(concurrent_batch=0)

    @pytest.mark.parametrize("r_error", [math.nan, math.inf])
    def test_non_finite_r_error_rejected(self, r_error):
        with pytest.raises(ValueError, match="radii"):
            Experiment2Config(r_error=r_error)


class TestExperiment3Config:
    def test_defaults_match_section_4_3(self):
        config = Experiment3Config()
        assert config.initial_percent == 5.0
        assert config.step_percent == 5.0
        assert config.events_per_step == 50
        assert config.final_percent == 75.0

    def test_step_schedule(self):
        config = Experiment3Config()
        assert config.n_steps == 14  # 5% -> 75% in 5% steps
        assert config.total_events == 750
        assert config.percent_at_step(0) == 5.0
        assert config.percent_at_step(3) == 20.0
        assert config.percent_at_step(100) == 75.0  # clamped

    def test_legend(self):
        config = Experiment3Config(sigma_correct=2.0, sigma_faulty=4.25)
        assert config.legend("Baseline") == "2-4.25 Baseline"

    def test_validation(self):
        with pytest.raises(ValueError):
            Experiment3Config(initial_percent=80.0, final_percent=75.0)
        with pytest.raises(ValueError):
            Experiment3Config(step_percent=0.0)
        with pytest.raises(ValueError):
            Experiment3Config(events_per_step=0)
        config = Experiment3Config()
        with pytest.raises(ValueError):
            config.percent_at_step(-1)
