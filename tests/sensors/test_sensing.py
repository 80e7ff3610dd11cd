"""Unit tests for the perception model."""

import math

import numpy as np
import pytest

from repro.network.geometry import Point, displace_xy
from repro.sensors.sensing import SensingConfig, SensingModel


class TestDetection:
    def test_detects_within_radius(self):
        model = SensingModel(SensingConfig(sensing_radius=20.0))
        assert model.detects(Point(0, 0), Point(10, 10))
        assert not model.detects(Point(0, 0), Point(20, 20))

    def test_detection_radius_inclusive(self):
        model = SensingModel(SensingConfig(sensing_radius=20.0))
        assert model.detects(Point(0, 0), Point(20.0, 0.0))

    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError):
            SensingConfig(sensing_radius=0.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            SensingConfig(location_sigma=-1.0)

    @pytest.mark.parametrize("field", ["sensing_radius", "location_sigma"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, field, value):
        """A level-0 false alarm draws radius * rng.random(), which
        checks nothing, so the config refuses what rng.uniform used to."""
        with pytest.raises(ValueError, match="finite"):
            SensingConfig(**{field: value})


class TestPerception:
    def test_zero_sigma_is_exact(self, rng):
        model = SensingModel(SensingConfig(location_sigma=0.0))
        event = Point(42.0, 24.0)
        assert model.perceive_location(event, rng) == event

    def test_noise_statistics_match_sigma(self, rng):
        sigma = 2.0
        model = SensingModel(SensingConfig(location_sigma=sigma))
        event = Point(50.0, 50.0)
        xs = []
        for _ in range(4000):
            p = model.perceive_location(event, rng)
            xs.append(p.x - event.x)
        assert abs(np.mean(xs)) < 0.15
        assert abs(np.std(xs) - sigma) < 0.15

    def test_sigma_override(self, rng):
        model = SensingModel(SensingConfig(location_sigma=0.0))
        p = model.perceive_location(Point(0, 0), rng, sigma=10.0)
        assert p != Point(0.0, 0.0)

    def test_negative_override_rejected(self, rng):
        model = SensingModel(SensingConfig())
        with pytest.raises(ValueError):
            model.perceive_location(Point(0, 0), rng, sigma=-1.0)

    @pytest.mark.parametrize("sigma", [None, 4.25])
    def test_placed_draws_equal_numpy_normal(self, sigma):
        """Each axis is rng.normal(0.0, s), from the same stream
        position."""
        model = SensingModel(SensingConfig(location_sigma=1.6))
        s = 1.6 if sigma is None else sigma
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        event = Point(30.0, 40.0)
        for _ in range(200):
            assert model.perceive_location(event, rng, sigma=sigma) == Point(
                event.x + float(twin.normal(0.0, s)),
                event.y + float(twin.normal(0.0, s)),
            )
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_unplaced_claim_is_its_input_after_both_draws(self):
        placed = SensingModel(SensingConfig(location_sigma=1.6))
        unplaced = SensingModel(SensingConfig(location_sigma=1.6),
                                places=False)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        event = Point(30.0, 40.0)
        for _ in range(20):
            assert unplaced.perceive_location(event, rng) is event
            assert placed.perceive_location(event, twin) != event
        assert rng.bit_generator.state == twin.bit_generator.state


class TestEncoding:
    def test_encode_decode_roundtrip(self):
        model = SensingModel(SensingConfig())
        node = Point(10.0, 20.0)
        perceived = Point(25.0, 5.0)
        offset = model.encode_report(node, perceived)
        back = displace_xy(node.x, node.y, offset.r, offset.theta)
        assert back == (pytest.approx(perceived.x), pytest.approx(perceived.y))

    def test_encoded_range_is_distance(self):
        model = SensingModel(SensingConfig())
        offset = model.encode_report(Point(0, 0), Point(3, 4))
        assert offset.r == pytest.approx(5.0)


class TestRayleighErrorModel:
    def test_error_probability_formula(self):
        """Table 2's error percentage: P(radial error > r) for two
        independent Gaussians is exp(-r^2 / (2 sigma^2))."""
        config = SensingConfig(location_sigma=4.25)
        p = config.error_probability_beyond(5.0)
        assert p == pytest.approx(math.exp(-25.0 / (2 * 4.25**2)))
        # sigma = 4.25 puts about half the reports beyond r_error = 5.
        assert 0.45 < p < 0.55

    def test_zero_sigma_never_errs(self):
        assert SensingConfig().error_probability_beyond(1.0) == 0.0

    def test_empirical_error_rate_matches_formula(self, rng):
        sigma, r_error = 4.25, 5.0
        config = SensingConfig(location_sigma=sigma)
        model = SensingModel(config)
        event = Point(50.0, 50.0)
        beyond = sum(
            model.perceive_location(event, rng).distance_to(event) > r_error
            for _ in range(4000)
        )
        expected = config.error_probability_beyond(r_error)
        assert abs(beyond / 4000 - expected) < 0.03

    def test_correct_node_sigma_rarely_errs(self):
        """sigma = 1.6 errs beyond 5 units well under 1% of the time --
        why Experiment 2 needs f_r = 0.1 for channel losses instead."""
        assert SensingConfig(
            location_sigma=1.6
        ).error_probability_beyond(5.0) < 0.01

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SensingConfig().error_probability_beyond(-1.0)
