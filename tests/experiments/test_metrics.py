"""Unit tests for run scoring."""

import pytest

from repro.experiments.metrics import EventOutcome, RunMetrics, score_run
from repro.network.geometry import Point
from repro.sensors.generator import GroundTruthEvent
from repro.service.session import DecisionRecord


def event(event_id, t, x=50.0, y=50.0):
    return GroundTruthEvent(event_id=event_id, time=t, location=Point(x, y))


def decision(decision_id, t, occurred=True, x=50.0, y=50.0, located=True):
    return DecisionRecord(
        decision_id=decision_id,
        time=t,
        occurred=occurred,
        location=Point(x, y) if located else None,
        supporters=(),
        dissenters=(),
    )


class TestBinaryScoring:
    def test_upheld_decision_in_window_detects(self):
        outcomes, fp = score_run(
            [event(1, 10.0)], [decision(1, 11.0)], round_interval=10.0
        )
        assert outcomes[0].detected
        assert fp == 0

    def test_rejected_decision_does_not_detect(self):
        outcomes, _ = score_run(
            [event(1, 10.0)],
            [decision(1, 11.0, occurred=False)],
            round_interval=10.0,
        )
        assert not outcomes[0].detected

    def test_decision_outside_window_does_not_detect(self):
        outcomes, _ = score_run(
            [event(1, 10.0)], [decision(1, 25.0)], round_interval=10.0
        )
        assert not outcomes[0].detected

    def test_one_decision_cannot_cover_two_events(self):
        outcomes, _ = score_run(
            [event(1, 10.0), event(2, 10.0)],
            [decision(1, 11.0)],
            round_interval=10.0,
        )
        assert sum(o.detected for o in outcomes) == 1


class TestLocationScoring:
    def test_detection_requires_r_error_proximity(self):
        outcomes, _ = score_run(
            [event(1, 10.0, x=50.0)],
            [decision(1, 11.0, x=54.0)],
            round_interval=10.0,
            r_error=5.0,
        )
        assert outcomes[0].detected
        assert outcomes[0].localisation_error == pytest.approx(4.0)

    def test_distant_decision_is_not_a_detection(self):
        outcomes, _ = score_run(
            [event(1, 10.0, x=50.0)],
            [decision(1, 11.0, x=60.0)],
            round_interval=10.0,
            r_error=5.0,
        )
        assert not outcomes[0].detected

    def test_nearest_of_several_decisions_wins(self):
        outcomes, _ = score_run(
            [event(1, 10.0, x=50.0)],
            [decision(1, 11.0, x=54.0), decision(2, 11.5, x=51.0)],
            round_interval=10.0,
            r_error=5.0,
        )
        assert outcomes[0].localisation_error == pytest.approx(1.0)

    def test_unlocated_decision_cannot_detect_in_location_mode(self):
        outcomes, _ = score_run(
            [event(1, 10.0)],
            [decision(1, 11.0, located=False)],
            round_interval=10.0,
            r_error=5.0,
        )
        assert not outcomes[0].detected

    def test_distance_tie_goes_to_the_first_decision_in_log_order(self):
        # Both decisions lie exactly 5.0 from event 1.  Event 1 takes the
        # first one logged, which leaves the second (the only one near
        # event 2) to detect event 2 -- in either time order.
        for later in (11.0, 10.5):
            outcomes, _ = score_run(
                [event(1, 10.0, x=50.0, y=50.0),
                 event(2, 10.0, x=44.0, y=44.0)],
                [decision(1, 11.0, x=53.0, y=54.0),
                 decision(2, later, x=47.0, y=46.0)],
                round_interval=10.0,
                r_error=5.0,
            )
            assert [o.detected for o in outcomes] == [True, True]
            assert outcomes[0].localisation_error == 5.0

    def test_concurrent_events_matched_separately(self):
        outcomes, _ = score_run(
            [event(1, 10.0, x=20.0), event(2, 10.0, x=80.0)],
            [decision(1, 11.0, x=20.5), decision(2, 11.0, x=79.5)],
            round_interval=10.0,
            r_error=5.0,
        )
        assert all(o.detected for o in outcomes)


class TestFalsePositives:
    def test_quiet_window_upheld_decision_counts(self):
        outcomes, fp = score_run(
            [event(1, 10.0)],
            [decision(1, 11.0), decision(2, 16.0)],
            round_interval=10.0,
            quiet_window_offset=5.0,
        )
        assert outcomes[0].detected
        assert fp == 1

    def test_rejected_quiet_decision_not_counted(self):
        _outcomes, fp = score_run(
            [event(1, 10.0)],
            [decision(2, 16.0, occurred=False)],
            round_interval=10.0,
            quiet_window_offset=5.0,
        )
        assert fp == 0

    def test_event_decision_after_quiet_offset_not_a_detection(self):
        outcomes, fp = score_run(
            [event(1, 10.0)],
            [decision(1, 16.0)],
            round_interval=10.0,
            quiet_window_offset=5.0,
        )
        assert not outcomes[0].detected
        assert fp == 1  # it falls in the quiet window instead


class TestRunMetrics:
    def make_metrics(self):
        outcomes = [
            EventOutcome(1, 10.0, Point(0, 0), True, 1.0),
            EventOutcome(2, 20.0, Point(0, 0), True, 3.0),
            EventOutcome(3, 30.0, Point(0, 0), False, None),
            EventOutcome(4, 40.0, Point(0, 0), True, 2.0),
        ]
        return RunMetrics(
            outcomes=outcomes,
            false_positive_decisions=2,
            quiet_windows=4,
            decisions_total=6,
            diagnosed_nodes=(1, 2, 9),
            truly_faulty_nodes=(1, 2, 3),
        )

    def test_accuracy(self):
        assert self.make_metrics().accuracy == pytest.approx(0.75)

    def test_empty_run_accuracy_is_one(self):
        assert RunMetrics().accuracy == 1.0

    def test_false_positive_rate(self):
        assert self.make_metrics().false_positive_rate == pytest.approx(0.5)

    def test_mean_localisation_error(self):
        assert self.make_metrics().mean_localisation_error == pytest.approx(
            2.0
        )

    def test_diagnosis_recall_and_false_positives(self):
        m = self.make_metrics()
        assert m.diagnosis_recall == pytest.approx(2 / 3)
        assert m.diagnosis_false_positives == 1
        nothing_diagnosed = RunMetrics(truly_faulty_nodes=(1, 2))
        assert nothing_diagnosed.diagnosis_recall == 0.0
        all_wrong = RunMetrics(diagnosed_nodes=(5, 6), truly_faulty_nodes=(1,))
        assert all_wrong.diagnosis_false_positives == 2

    def test_zero_event_run_defaults(self):
        m = RunMetrics()
        assert m.events_total == 0
        assert m.events_detected == 0
        assert m.accuracy == 1.0
        assert m.false_positive_rate == 0.0
        assert m.mean_localisation_error is None
        assert m.diagnosis_recall == 1.0
        assert m.accuracy_over_windows(3) == []

    def test_false_positive_rate_guards_zero_quiet_windows(self):
        # decisions can be spurious even when no quiet windows were
        # driven; the *rate* is defined over quiet windows only
        m = RunMetrics(false_positive_decisions=4, quiet_windows=0)
        assert m.false_positive_decisions == 4
        assert m.false_positive_rate == 0.0

    def test_accuracy_over_windows(self):
        m = self.make_metrics()
        series = m.accuracy_over_windows(window=2)
        assert series == [(0, 1.0), (1, 0.5)]

    def test_accuracy_over_windows_validation(self):
        with pytest.raises(ValueError):
            self.make_metrics().accuracy_over_windows(0)

    def test_score_run_validation(self):
        with pytest.raises(ValueError):
            score_run([], [], round_interval=0.0)
