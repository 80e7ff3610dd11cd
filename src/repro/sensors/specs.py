"""Population behaviour specs and their behaviour factories.

A :class:`CorrectSpec` / :class:`FaultSpec` pair describes the two node
populations of an experiment (§2.1's categories with Table 1/2
parameters); the factory functions turn a spec into a concrete
:class:`~repro.sensors.faults.NodeBehavior` for one node.  The
experiment harness builds every population through these, on a fixed
head and on the rotating multi-cluster network alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.trust import TrustParameters
from repro.sensors.faults import (
    CollusionCoordinator,
    CorrectBehavior,
    Level0Behavior,
    Level1Behavior,
    Level2Behavior,
    NodeBehavior,
    TrustEstimator,
)
from repro.sensors.sensing import SensingModel


@dataclass(frozen=True)
class CorrectSpec:
    """Parameters of correct-node behaviour (the NER, §2.1)."""

    miss_rate: float = 0.0
    false_alarm_rate: float = 0.0
    sigma: float = 0.0


@dataclass(frozen=True)
class FaultSpec:
    """Parameters of faulty-node behaviour at one of the three levels.

    ``collusion_cells`` partitions level-2 colluders into that many
    independent cells, each with its own coordinator (the paper's §7
    future work on "different levels of collusion and decision sharing
    amongst malicious nodes"); 1 is the paper's single fully-connected
    cell.
    """

    level: int = 0
    drop_rate: float = 0.5
    false_alarm_rate: float = 0.0
    sigma: float = 4.25
    lower_ti: float = 0.5
    upper_ti: float = 0.8
    silence_rate: float = 0.25
    collusion_cells: int = 1

    def __post_init__(self) -> None:
        if self.level not in (0, 1, 2):
            raise ValueError(f"level must be 0, 1 or 2, got {self.level}")
        if self.collusion_cells < 1:
            raise ValueError(
                f"collusion_cells must be >= 1, got {self.collusion_cells}"
            )


def make_correct_behavior(
    spec: CorrectSpec, sensing: SensingModel
) -> CorrectBehavior:
    """Instantiate a correct node's behaviour from its spec."""
    return CorrectBehavior(
        sensing,
        miss_rate=spec.miss_rate,
        false_alarm_rate=spec.false_alarm_rate,
    )


def make_coordinator(
    spec: FaultSpec,
    sensing: SensingModel,
    rng: np.random.Generator,
) -> CollusionCoordinator:
    """One shared level-2 coordinator for a colluding cell."""
    return CollusionCoordinator(
        sensing,
        rng,
        location_sigma=spec.sigma,
        silence_rate=spec.silence_rate,
        lower_ti=spec.lower_ti,
        upper_ti=spec.upper_ti,
    )


class CollusionCellPool:
    """Assigns level-2 colluders to ``spec.collusion_cells`` coordinators.

    Cells are filled round-robin in enrolment order, so with ``k``
    cells the adversary operates ``k`` mutually unaware conspiracies --
    the paper's §7 "different levels of collusion" axis.
    """

    def __init__(
        self,
        spec: FaultSpec,
        sensing: SensingModel,
        rng: np.random.Generator,
    ) -> None:
        self.spec = spec
        self._coordinators = [
            make_coordinator(spec, sensing, rng)
            for _ in range(spec.collusion_cells)
        ]
        self._next = 0

    def assign(self) -> CollusionCoordinator:
        """The coordinator for the next enrolling colluder."""
        coordinator = self._coordinators[self._next % len(self._coordinators)]
        self._next += 1
        return coordinator


def make_faulty_behavior(
    spec: FaultSpec,
    sensing: SensingModel,
    node_id: int,
    trust_params: TrustParameters,
    correct_spec: CorrectSpec = CorrectSpec(),
    coordinator: Optional[CollusionCoordinator] = None,
) -> NodeBehavior:
    """Instantiate a faulty node's behaviour from its spec.

    Level 2 requires the cell's shared ``coordinator`` (build one with
    :func:`make_coordinator`); levels 0 and 1 ignore it.
    """
    lying = Level0Behavior(
        sensing,
        drop_rate=spec.drop_rate,
        false_alarm_rate=spec.false_alarm_rate,
        location_sigma=spec.sigma,
    )
    if spec.level == 0:
        return lying
    honest = make_correct_behavior(correct_spec, sensing)
    estimator = TrustEstimator(trust_params)
    if spec.level == 1:
        return Level1Behavior(
            lying,
            honest,
            estimator,
            lower_ti=spec.lower_ti,
            upper_ti=spec.upper_ti,
        )
    if coordinator is None:
        raise ValueError("level-2 behaviours need a shared coordinator")
    return Level2Behavior(
        node_id=node_id,
        coordinator=coordinator,
        honest=honest,
        estimator=estimator,
    )
