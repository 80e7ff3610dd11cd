"""Unit tests for the simulation harness (small, fast runs)."""

import math

import pytest

from repro.experiments.harness import CompromiseOrder, SimulationRun
from repro.network.geometry import PolarOffset
from repro.network.messages import EventReportMessage
from repro.sensors.specs import CorrectSpec, FaultSpec


def small_binary_run(**kwargs):
    defaults = dict(
        mode="binary",
        n_nodes=6,
        field_side=30.0,
        sensing_radius=100.0,
        r_error=5.0,
        lam=0.1,
        fault_rate=0.01,
        correct_spec=CorrectSpec(miss_rate=0.0),
        fault_spec=FaultSpec(level=0, drop_rate=1.0),
        channel_loss=0.0,
        seed=3,
    )
    defaults.update(kwargs)
    return SimulationRun(**defaults)


def small_location_run(**kwargs):
    defaults = dict(
        mode="location",
        n_nodes=25,
        field_side=50.0,
        sensing_radius=20.0,
        r_error=5.0,
        lam=0.25,
        fault_rate=0.1,
        correct_spec=CorrectSpec(sigma=1.0),
        fault_spec=FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
        channel_loss=0.0,
        seed=3,
    )
    defaults.update(kwargs)
    return SimulationRun(**defaults)


class TestBinaryRuns:
    def test_all_correct_nodes_reach_full_accuracy(self):
        run = small_binary_run(faulty_ids=())
        run.run(20)
        metrics = run.metrics()
        assert metrics.accuracy == 1.0
        assert metrics.events_total == 20

    def test_total_silence_from_all_faulty_drops_accuracy(self):
        run = small_binary_run(faulty_ids=range(6))
        run.run(10)
        # Everyone drops every report: no window ever opens.
        assert run.metrics().accuracy == 0.0

    def test_minority_faulty_is_masked(self):
        run = small_binary_run(faulty_ids=(0, 1))
        run.run(20)
        assert run.metrics().accuracy == 1.0

    def test_faulty_trust_decays(self):
        run = small_binary_run(faulty_ids=(0,))
        run.run(20)
        tis = run.trust_snapshot()
        assert tis[0] < 0.2
        assert all(tis[i] > 0.9 for i in range(1, 6))

    def test_false_alarms_are_counted(self):
        run = small_binary_run(
            faulty_ids=(0, 1, 2),
            fault_spec=FaultSpec(
                level=0, drop_rate=0.0, false_alarm_rate=1.0
            ),
        )
        run.run(10)
        metrics = run.metrics()
        assert metrics.quiet_windows == 10
        # 3-vs-3 ties fail, so the spurious reports never win...
        assert metrics.false_positive_decisions == 0
        # ...and accuracy on real events is unharmed.
        assert metrics.accuracy == 1.0


def reports_reaching_the_head(run, n_rounds):
    """Every report ``run``'s fixed head receives, in delivery order,
    and the message ids of the quiet-window false alarms among them."""
    run.build()
    alarm_ids = set()

    def recording_alarms(compose):
        def compose_false_alarm():
            alarm = compose()
            if alarm is not None:
                alarm_ids.add(alarm.message_id)
            return alarm
        return compose_false_alarm

    for node in run.nodes.values():
        node.compose_false_alarm = recording_alarms(node.compose_false_alarm)
    received = []
    deliver = run.ch.on_message

    def recording(message):
        if isinstance(message, EventReportMessage):
            received.append(message)
        deliver(message)

    run.ch.on_message = recording
    run.run(n_rounds)
    return received, alarm_ids


class TestReportEncoding:
    """A report carries an offset exactly when its head places reports."""

    def test_binary_head_receives_no_offsets(self):
        run = small_binary_run(
            faulty_ids=(0, 1, 2),
            fault_spec=FaultSpec(
                level=0, drop_rate=0.5, false_alarm_rate=0.5
            ),
        )
        reports, alarm_ids = reports_reaching_the_head(run, 10)
        # Event reports and quiet-window false alarms alike.
        assert {r.message_id in alarm_ids for r in reports} == {True, False}
        assert all(r.offset is None for r in reports)

    def test_location_head_receives_polar_offsets(self):
        run = small_location_run(
            faulty_ids=(1, 5, 9),
            fault_spec=FaultSpec(
                level=0, drop_rate=0.25, sigma=4.25, false_alarm_rate=0.5
            ),
        )
        reports, alarm_ids = reports_reaching_the_head(run, 10)
        assert {r.message_id in alarm_ids for r in reports} == {True, False}
        assert all(type(r.offset) is PolarOffset for r in reports)


class TestLocationRuns:
    def test_clean_run_locates_all_events(self):
        run = small_location_run(faulty_ids=())
        run.run(15)
        metrics = run.metrics()
        assert metrics.accuracy == 1.0
        assert metrics.mean_localisation_error < 2.0

    def test_metrics_report_truly_faulty(self):
        run = small_location_run(faulty_ids=(3, 7))
        run.run(5)
        assert run.metrics().truly_faulty_nodes == (3, 7)

    def test_concurrent_batches_generate_multiple_events_per_round(self):
        run = small_location_run(concurrent_batch=2)
        run.run(10)
        assert len(run.events) == 20

    def test_diagnosis_isolates_liars(self):
        run = small_location_run(
            faulty_ids=(12,),
            fault_spec=FaultSpec(level=0, drop_rate=1.0),
            diagnosis_threshold=0.3,
        )
        run.run(25)
        assert 12 in run.metrics().diagnosed_nodes


class TestCompromiseSchedule:
    def test_scheduled_compromise_flips_behavior(self):
        run = small_binary_run(faulty_ids=())
        run.schedule_compromise(5, [0, 1])
        run.run(10)
        assert run.nodes[0].is_faulty
        assert run.metrics().truly_faulty_nodes == (0, 1)

    def test_compromise_emits_a_span_per_node(self):
        run = small_binary_run(faulty_ids=(), spans=True)
        run.schedule_compromise(5, [0, 1])
        run.run(10)
        compromised = run.spans.spans("harness.compromise")
        round_time = 6 * run.round_interval  # round 5 fires at (5+1)*interval
        assert [(span.time, span.args) for span in compromised] == [
            (round_time, {"node": 0}), (round_time, {"node": 1}),
        ]

    def test_compromise_only_applies_at_round(self):
        run = small_binary_run(faulty_ids=())
        run.schedule_compromise(100, [0])  # beyond the run
        run.run(5)
        assert not run.nodes[0].is_faulty

    def test_invalid_round_rejected(self):
        run = small_binary_run()
        with pytest.raises(ValueError):
            run.schedule_compromise(-1, [0])


class TestValidation:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            small_binary_run(mode="other")

    def test_round_interval_must_cover_windows(self):
        with pytest.raises(ValueError):
            small_binary_run(round_interval=1.5, t_out=1.0)

    @pytest.mark.parametrize("timing", [
        {"round_interval": math.nan},
        {"round_interval": math.inf},
        {"t_out": math.nan},
    ], ids=["round_interval-nan", "round_interval-inf", "t_out-nan"])
    def test_non_finite_timing_rejected(self, timing):
        """A NaN or infinite window or round spacing is refused as the
        run is made, not run into a SchedulingError or scored 0."""
        with pytest.raises(ValueError, match="finite"):
            small_binary_run(**timing)

    def test_unknown_faulty_ids_rejected(self):
        with pytest.raises(ValueError):
            small_binary_run(faulty_ids=(99,))

    @pytest.mark.parametrize("side", [math.nan, math.inf])
    def test_non_finite_field_side_rejected_at_build(self, side):
        """The field is refused as it is built, not when the first node
        lands outside it."""
        with pytest.raises(ValueError, match="finite"):
            small_binary_run(field_side=side).build()

    @pytest.mark.parametrize("level", [0, 2])
    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_faulty_sigma_rejected_at_build(self, sigma, level):
        """The liars' sigma is refused as the correct side's is, not
        run with NaN or infinite claims that the vote discards."""
        run = small_location_run(
            faulty_ids=(1, 5, 9),
            fault_spec=FaultSpec(level=level, drop_rate=0.25, sigma=sigma),
        )
        with pytest.raises(ValueError, match="location_sigma"):
            run.build()

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            small_location_run(faulty_ids=(1, 5, 9), lam=lam).build()

    @pytest.mark.parametrize("r_error", [math.nan, math.inf])
    def test_non_finite_r_error_rejected_at_build(self, r_error):
        run = small_location_run(faulty_ids=(1, 5, 9), r_error=r_error)
        with pytest.raises(ValueError, match="r_error"):
            run.build()

    def test_double_build_rejected(self):
        run = small_binary_run()
        run.build()
        with pytest.raises(RuntimeError):
            run.build()

    def test_invalid_round_count_rejected(self):
        run = small_binary_run()
        with pytest.raises(ValueError):
            run.run(0)

    def test_determinism_same_seed_same_metrics(self):
        a = small_location_run(faulty_ids=(1, 5, 9), seed=11)
        a.run(10)
        b = small_location_run(faulty_ids=(1, 5, 9), seed=11)
        b.run(10)
        assert a.metrics().accuracy == b.metrics().accuracy
        assert a.trust_snapshot() == b.trust_snapshot()
