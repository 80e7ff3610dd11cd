"""Unit tests for the fault-plan DSL (repro.chaos.plan)."""

import pytest

from repro.chaos.plan import (
    EMPTY_PLAN,
    ChannelWindow,
    ChCrash,
    FaultPlan,
    NodeOutage,
    PartitionWindow,
    builtin_plans,
)


class TestValidation:
    def test_window_rejects_inverted_interval(self):
        with pytest.raises(ValueError, match="end must exceed start"):
            ChannelWindow(start=5.0, end=5.0)

    def test_window_rejects_negative_start(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChannelWindow(start=-1.0, end=5.0)

    def test_window_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="loss_probability"):
            ChannelWindow(start=0.0, end=1.0, loss_probability=1.5)

    def test_window_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="extra_delay"):
            ChannelWindow(start=0.0, end=1.0, extra_delay=-0.1)

    def test_outage_rejects_recovery_before_crash(self):
        with pytest.raises(ValueError, match="end must exceed start"):
            NodeOutage(node_id=1, start=5.0, end=4.0)

    def test_ch_crash_rejects_recovery_before_crash(self):
        with pytest.raises(ValueError, match="end must exceed start"):
            ChCrash(start=5.0, end=5.0)

    def test_partition_rejects_node_in_two_groups(self):
        with pytest.raises(ValueError, match="multiple"):
            PartitionWindow(start=0.0, end=1.0, groups=((1, 2), (2, 3)))

    def test_window_applies_respects_endpoint_filters(self):
        window = ChannelWindow(
            start=0.0, end=1.0, senders=(1, 2), receivers=(9,)
        )
        assert window.applies(1, 9)
        assert not window.applies(3, 9)
        assert not window.applies(1, 8)
        unfiltered = ChannelWindow(start=0.0, end=1.0)
        assert unfiltered.applies(123, 456)


class TestSerialisation:
    def _full_plan(self) -> FaultPlan:
        return FaultPlan(
            name="full",
            windows=(
                ChannelWindow(
                    start=1.0, end=2.0, loss_probability=0.5,
                    extra_delay=0.1, jitter=0.05,
                    duplicate_probability=0.25, senders=(1,),
                ),
            ),
            outages=(NodeOutage(node_id=3, start=2.0, end=4.0),
                     NodeOutage(node_id=4, start=2.0)),
            partitions=(
                PartitionWindow(start=1.0, end=3.0, groups=((0, 1), (2,))),
            ),
            ch_crashes=(ChCrash(start=5.0, failover=True),),
        )

    def test_json_round_trip_is_identity(self):
        plan = self._full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_file_round_trip(self, tmp_path):
        plan = self._full_plan()
        path = plan.save(tmp_path / "plans" / "full.json")
        assert FaultPlan.load(path) == plan

    def test_from_dict_rejects_unknown_top_level_field(self):
        with pytest.raises(ValueError, match="unknown FaultPlan"):
            FaultPlan.from_dict({"name": "x", "windoes": []})

    def test_from_dict_rejects_unknown_nested_field(self):
        with pytest.raises(ValueError, match="unknown ChannelWindow"):
            FaultPlan.from_dict(
                {"windows": [{"start": 0.0, "end": 1.0, "los": 0.5}]}
            )

    @pytest.mark.parametrize("section, record", [
        ("windows", '{"start": NaN, "end": 5.0}'),
        ("windows", '{"start": 1.0, "end": NaN}'),
        ("windows", '{"start": 1.0, "end": Infinity}'),
        ("windows", '{"start": 1.0, "end": 5.0, "extra_delay": NaN}'),
        ("windows", '{"start": 1.0, "end": 5.0, "extra_delay": Infinity}'),
        ("windows", '{"start": 1.0, "end": 5.0, "jitter": NaN}'),
        ("windows", '{"start": 1.0, "end": 5.0, "jitter": Infinity}'),
        ("partitions", '{"start": NaN, "end": 5.0, "groups": [[0], [1]]}'),
        ("partitions", '{"start": 1.0, "end": Infinity, "groups": [[0], [1]]}'),
        ("outages", '{"node_id": 1, "start": NaN}'),
        ("outages", '{"node_id": 1, "start": 1.0, "end": NaN}'),
        ("outages", '{"node_id": 1, "start": 1.0, "end": Infinity}'),
        ("ch_crashes", '{"start": NaN}'),
        ("ch_crashes", '{"start": 1.0, "end": Infinity, "failover": false}'),
    ])
    def test_from_json_rejects_non_finite_times(self, section, record):
        with pytest.raises(ValueError, match="must be finite"):
            FaultPlan.from_json(f'{{"{section}": [{record}]}}')


class TestGeneration:
    def test_random_plan_is_a_pure_function_of_seed(self):
        a = FaultPlan.random(seed=7, n_nodes=10, horizon=100.0)
        b = FaultPlan.random(seed=7, n_nodes=10, horizon=100.0)
        c = FaultPlan.random(seed=8, n_nodes=10, horizon=100.0)
        assert a == b
        assert a.name == "random-7"
        assert a != c

    def test_random_plans_validate_and_round_trip(self):
        for seed in range(25):
            plan = FaultPlan.random(seed=seed, n_nodes=8, horizon=50.0)
            assert FaultPlan.from_json(plan.to_json()) == plan

    def test_builtin_plans_cover_every_failure_family(self):
        plans = builtin_plans(horizon=120.0, n_nodes=10)
        assert set(plans) == {
            "empty", "burst-loss", "delay-spike", "dup-reorder",
            "node-churn", "partition", "ch-crash",
        }
        assert plans["empty"] == EMPTY_PLAN
        assert plans["burst-loss"].windows[0].loss_probability > 0
        assert plans["ch-crash"].ch_crashes[0].failover
