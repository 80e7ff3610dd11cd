"""Unit tests for behaviour specs and factories."""

import numpy as np
import pytest

from repro.core.trust import TrustParameters
from repro.network.geometry import Point
from repro.sensors.faults import (
    CorrectBehavior,
    Level0Behavior,
    Level1Behavior,
    Level2Behavior,
)
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.sensors.specs import (
    CollusionCellPool,
    CorrectSpec,
    FaultSpec,
    make_coordinator,
    make_correct_behavior,
    make_faulty_behavior,
)

SENSING = SensingModel(SensingConfig(sensing_radius=20.0, location_sigma=1.6))
PARAMS = TrustParameters(lam=0.25, fault_rate=0.1)


class TestFactories:
    def test_correct_factory_copies_spec(self):
        behavior = make_correct_behavior(
            CorrectSpec(miss_rate=0.2, false_alarm_rate=0.1), SENSING
        )
        assert isinstance(behavior, CorrectBehavior)
        assert behavior.miss_rate == 0.2
        assert behavior.false_alarm_rate == 0.1

    def test_level0_factory(self):
        behavior = make_faulty_behavior(
            FaultSpec(level=0, drop_rate=0.7, sigma=6.0),
            SENSING, 3, PARAMS,
        )
        assert isinstance(behavior, Level0Behavior)
        assert behavior.drop_rate == 0.7
        assert behavior.location_sigma == 6.0

    def test_level1_factory_wires_hysteresis(self):
        behavior = make_faulty_behavior(
            FaultSpec(level=1, lower_ti=0.4, upper_ti=0.9),
            SENSING, 3, PARAMS,
        )
        assert isinstance(behavior, Level1Behavior)
        assert behavior.lower_ti == 0.4
        assert behavior.upper_ti == 0.9

    def test_level2_requires_coordinator(self):
        with pytest.raises(ValueError):
            make_faulty_behavior(
                FaultSpec(level=2), SENSING, 3, PARAMS, coordinator=None
            )

    def test_level2_factory_enrolls_member(self):
        coordinator = make_coordinator(
            FaultSpec(level=2), SENSING, np.random.default_rng(1)
        )
        behavior = make_faulty_behavior(
            FaultSpec(level=2), SENSING, 7, PARAMS,
            coordinator=coordinator,
        )
        assert isinstance(behavior, Level2Behavior)
        assert behavior.coordinator is coordinator


class TestCollusionCells:
    def test_default_is_single_cell(self):
        pool = CollusionCellPool(
            FaultSpec(level=2), SENSING, np.random.default_rng(1)
        )
        assert pool.assign() is pool.assign()

    def test_round_robin_assignment(self):
        pool = CollusionCellPool(
            FaultSpec(level=2, collusion_cells=3),
            SENSING,
            np.random.default_rng(1),
        )
        picks = [pool.assign() for _ in range(6)]
        assert picks[0] is picks[3]
        assert picks[1] is picks[4]
        assert picks[0] is not picks[1]

    def test_cells_act_independently(self):
        """Members of different cells draw different fake locations."""
        pool = CollusionCellPool(
            FaultSpec(level=2, collusion_cells=2, silence_rate=0.0),
            SENSING,
            np.random.default_rng(1),
        )
        event = Point(50.0, 50.0)
        a = pool.assign().group_decision("e1", event)
        b = pool.assign().group_decision("e1", event)
        assert a is not None and b is not None
        assert (a.x, a.y) != (b.x, b.y)

    def test_invalid_cell_count_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(level=2, collusion_cells=0)
