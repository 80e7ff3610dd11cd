"""Unit tests for the four node categories and the adversary model (§2.1)."""

import math

import numpy as np
import pytest

from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.sensors.faults import (
    CollusionCoordinator,
    CorrectBehavior,
    Level0Behavior,
    Level1Behavior,
    Level2Behavior,
    TrustEstimator,
)
from repro.sensors.sensing import SensingConfig, SensingModel

SENSING = SensingModel(SensingConfig(sensing_radius=20.0, location_sigma=1.6))
REGION = Region.square(100.0)
EVENT = Point(50.0, 50.0)
NODE = Point(45.0, 45.0)
PARAMS = TrustParameters(lam=0.25, fault_rate=0.1)


class TestObservesOutcomes:
    def test_flag_marks_the_behaviours_that_track_their_trust(self):
        assert not CorrectBehavior.observes_outcomes
        assert not Level0Behavior.observes_outcomes
        assert Level1Behavior.observes_outcomes
        assert Level2Behavior.observes_outcomes

    def test_flag_is_derived_for_every_subclass(self):
        class Watchful(CorrectBehavior):
            def observe_outcome(self, rewarded):
                pass

        class Inherits(Watchful):
            pass

        class Plain(Level0Behavior):
            pass

        assert Watchful.observes_outcomes and Inherits.observes_outcomes
        assert not Plain.observes_outcomes


class TestTrustEstimator:
    def test_starts_at_full_trust(self):
        assert TrustEstimator(PARAMS).ti == 1.0

    def test_tracks_ch_updates_exactly(self):
        """The estimator replays the CH rule, so it matches a real
        TrustTable fed the same outcome sequence."""
        from repro.core.trust import TrustTable

        table = TrustTable(PARAMS, node_ids=[0])
        est = TrustEstimator(PARAMS)
        outcomes = [False, False, True, False, True, True, True]
        for rewarded in outcomes:
            if rewarded:
                table.reward(0)
                est.observe_outcome(True)
            else:
                table.penalize(0)
                est.observe_outcome(False)
        assert est.ti == pytest.approx(table.ti(0))

    def test_reward_floor_at_zero_v(self):
        est = TrustEstimator(PARAMS)
        est.observe_outcome(True)
        assert est.ti == 1.0


class TestCorrectBehavior:
    def test_reports_with_noise(self, rng):
        behavior = CorrectBehavior(SENSING, miss_rate=0.0)
        claim = behavior.on_event(NODE, EVENT, rng)
        assert claim is not None
        assert claim.distance_to(EVENT) < 10.0  # 1.6-sigma noise

    def test_never_misses_with_zero_ner(self, rng):
        behavior = CorrectBehavior(SENSING, miss_rate=0.0)
        assert all(
            behavior.on_event(NODE, EVENT, rng) is not None
            for _ in range(100)
        )

    def test_miss_rate_statistics(self, rng):
        behavior = CorrectBehavior(SENSING, miss_rate=0.3)
        misses = sum(
            behavior.on_event(NODE, EVENT, rng) is None for _ in range(2000)
        )
        assert 480 <= misses <= 720  # ~600

    def test_quiet_window_silent_by_default(self, rng):
        behavior = CorrectBehavior(SENSING)
        assert behavior.on_quiet_window(NODE, REGION, rng) is None

    def test_natural_false_alarms_when_configured(self, rng):
        behavior = CorrectBehavior(SENSING, false_alarm_rate=1.0)
        assert behavior.on_quiet_window(NODE, REGION, rng) is not None

    def test_is_not_faulty(self):
        assert not CorrectBehavior(SENSING).is_faulty
        assert CorrectBehavior(SENSING).level is None

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            CorrectBehavior(SENSING, miss_rate=1.5)
        with pytest.raises(ValueError):
            CorrectBehavior(SENSING, false_alarm_rate=-0.1)


class TestLevel0Behavior:
    def test_drop_rate_statistics(self, rng):
        behavior = Level0Behavior(SENSING, drop_rate=0.5)
        reports = sum(
            behavior.on_event(NODE, EVENT, rng) is not None
            for _ in range(2000)
        )
        assert 900 <= reports <= 1100

    def test_reports_use_faulty_sigma(self, rng):
        behavior = Level0Behavior(
            SENSING, drop_rate=0.0, location_sigma=6.0
        )
        errors = [
            behavior.on_event(NODE, EVENT, rng).distance_to(EVENT)
            for _ in range(500)
        ]
        mean_err = sum(errors) / len(errors)
        # Rayleigh(6) mean = 6 * sqrt(pi/2) ~ 7.5
        assert 6.0 < mean_err < 9.0

    def test_false_alarms_claim_within_sensing_range(self, rng):
        behavior = Level0Behavior(SENSING, false_alarm_rate=1.0)
        for _ in range(50):
            claim = behavior.on_quiet_window(NODE, REGION, rng)
            assert claim is not None
            assert NODE.distance_to(claim) <= SENSING.config.sensing_radius + 0.01
            assert REGION.contains(claim)

    def test_zero_false_alarm_rate_is_silent(self, rng):
        behavior = Level0Behavior(SENSING, false_alarm_rate=0.0)
        assert all(
            behavior.on_quiet_window(NODE, REGION, rng) is None
            for _ in range(100)
        )

    def test_is_level_0(self):
        assert Level0Behavior(SENSING).level == 0
        assert Level0Behavior(SENSING).is_faulty

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_sigma_must_be_non_negative_and_finite(self, sigma):
        with pytest.raises(ValueError, match="location_sigma"):
            Level0Behavior(SENSING, location_sigma=sigma)


def make_level1(lower=0.5, upper=0.8, drop=1.0):
    lying = Level0Behavior(SENSING, drop_rate=drop, location_sigma=6.0)
    honest = CorrectBehavior(SENSING, miss_rate=0.0)
    est = TrustEstimator(PARAMS)
    return Level1Behavior(lying, honest, est, lower_ti=lower, upper_ti=upper)


class TestLevel1Hysteresis:
    def test_starts_in_lying_phase(self, rng):
        behavior = make_level1(drop=1.0)
        assert behavior.currently_lying
        assert behavior.on_event(NODE, EVENT, rng) is None  # drops all

    def test_goes_honest_when_estimate_hits_lower(self, rng):
        behavior = make_level1()
        while behavior.estimator.ti > 0.5:
            behavior.observe_outcome(rewarded=False)
        behavior.on_event(NODE, EVENT, rng)  # triggers phase update
        assert not behavior.currently_lying

    def test_resumes_lying_past_upper(self, rng):
        behavior = make_level1()
        while behavior.estimator.ti > 0.5:
            behavior.observe_outcome(rewarded=False)
        behavior.on_event(NODE, EVENT, rng)
        assert not behavior.currently_lying
        while behavior.estimator.ti < 0.8:
            behavior.observe_outcome(rewarded=True)
        behavior.on_event(NODE, EVENT, rng)
        assert behavior.currently_lying

    def test_hysteresis_band_holds_between_thresholds(self, rng):
        """Inside (lower, upper) the phase does not flip either way."""
        behavior = make_level1()
        while behavior.estimator.ti > 0.5:
            behavior.observe_outcome(rewarded=False)
        behavior.on_event(NODE, EVENT, rng)
        assert not behavior.currently_lying
        behavior.observe_outcome(rewarded=True)  # ti rises a bit, < 0.8
        behavior.on_event(NODE, EVENT, rng)
        assert not behavior.currently_lying  # still honest

    def test_honest_phase_reports_accurately(self, rng):
        behavior = make_level1()
        while behavior.estimator.ti > 0.5:
            behavior.observe_outcome(rewarded=False)
        claim = behavior.on_event(NODE, EVENT, rng)
        assert claim is not None
        assert claim.distance_to(EVENT) < 10.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            make_level1(lower=0.8, upper=0.5)

    def test_is_level_1(self):
        assert make_level1().level == 1


def make_collusion(n=3, silence_rate=0.0, seed=1):
    coord = CollusionCoordinator(
        SENSING,
        np.random.default_rng(seed),
        location_sigma=4.25,
        silence_rate=silence_rate,
    )
    members = []
    for i in range(n):
        members.append(
            Level2Behavior(
                node_id=i,
                coordinator=coord,
                honest=CorrectBehavior(SENSING, miss_rate=0.0),
                estimator=TrustEstimator(PARAMS),
            )
        )
    return coord, members


class TestLevel2Collusion:
    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_sigma_must_be_non_negative_and_finite(self, sigma, rng):
        with pytest.raises(ValueError, match="location_sigma"):
            CollusionCoordinator(SENSING, rng, location_sigma=sigma)

    def test_all_members_report_identical_location(self, rng):
        _coord, members = make_collusion(n=4)
        for m in members:
            m.set_event_token("event-1")
        claims = [m.on_event(NODE, EVENT, rng) for m in members]
        assert all(c is not None for c in claims)
        assert len({(c.x, c.y) for c in claims}) == 1

    def test_joint_silence_when_silence_draw_hits(self, rng):
        _coord, members = make_collusion(n=3, silence_rate=1.0)
        for m in members:
            m.set_event_token("event-1")
        claims = [m.on_event(NODE, EVENT, rng) for m in members]
        assert claims == [None, None, None]

    def test_new_event_token_gets_fresh_draw(self, rng):
        _coord, members = make_collusion(n=2)
        members[0].set_event_token("e1")
        first = members[0].on_event(NODE, EVENT, rng)
        members[0].set_event_token("e2")
        second = members[0].on_event(NODE, EVENT, rng)
        assert (first.x, first.y) != (second.x, second.y)

    def test_group_goes_honest_on_mean_estimate(self, rng):
        coord, members = make_collusion(n=2)
        for m in members:
            while m.estimator.ti > 0.4:
                m.observe_outcome(rewarded=False)
        for m in members:
            m.set_event_token("e-later")
        claims = [m.on_event(NODE, EVENT, rng) for m in members]
        assert not coord.currently_lying
        # Honest phase: members report individually (distinct noise).
        assert claims[0] is not None and claims[1] is not None
        assert (claims[0].x, claims[0].y) != (claims[1].x, claims[1].y)

    def test_members_quiet_between_events(self, rng):
        _coord, members = make_collusion()
        assert members[0].on_quiet_window(NODE, REGION, rng) is None

    def test_is_level_2(self):
        _coord, members = make_collusion(n=1)
        assert members[0].level == 2

    def test_standalone_call_without_token_still_works(self, rng):
        _coord, members = make_collusion(n=1)
        claim = members[0].on_event(NODE, EVENT, rng)
        # Lying phase and silence_rate 0: must produce a claim.
        assert claim is not None
