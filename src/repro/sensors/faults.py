"""The paper's four node categories and its adversary model (§2.1).

* **Correct** nodes are "not assumed to be 100% accurate, but are
  expected to make errors within a specified bound referred to as
  natural error rate" -- they occasionally miss events and report with
  mild Gaussian location noise.
* **Level 0** faulty nodes are naive: they randomly drop event reports,
  raise false alarms, and report locations with large noise, following
  no strategy.
* **Level 1** faulty nodes are *smart*: they lie independently but
  watch their own standing.  Each maintains an estimate of the trust
  index the cluster head holds for it and, when the estimate sinks to
  ``lowerTI``, "behave[s] like a correct node until they reach an upper
  threshold" ``upperTI``, "after which they begin erring again" (§4.2).
* **Level 2** faulty nodes collude: per event "all either send the
  event report for the same location or do not send the event report"
  (§4.2), coordinated through a :class:`CollusionCoordinator` assumed
  undetectable by reliable nodes.

Behaviours are pure decision objects: given an event (or a quiet
false-alarm window) they return what the node claims, or ``None`` for
silence.  All randomness comes from the generator passed in, so node
behaviour is reproducible from the stream seeds.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.sensors.sensing import SensingModel


def _check_sigma(location_sigma: float) -> None:
    """Refuse a lying sigma that ``SensingConfig`` would refuse."""
    if not 0 <= location_sigma < math.inf:
        raise ValueError(
            f"location_sigma must be non-negative and finite, "
            f"got {location_sigma}"
        )


class TrustEstimator:
    """A smart node's running estimate of its own trust index.

    The cluster head's update rule is public knowledge to a compromised
    node ("aware partially of the system model", §2.1), and every CH
    decision is broadcast, so the node can replay the rule against its
    own actions exactly.  The estimate therefore tracks the CH's true
    value whenever the node hears the decision (announcement loss makes
    it drift, which is faithful to a real deployment).
    """

    def __init__(self, params: TrustParameters) -> None:
        self.params = params
        self.v_est = 0.0

    @property
    def ti(self) -> float:
        """Current trust-index estimate."""
        return self.params.ti_of(self.v_est)

    def observe_outcome(self, rewarded: bool) -> None:
        """Replay one CH update against the node's own entry."""
        if rewarded:
            self.v_est = max(0.0, self.v_est - self.params.reward_step)
        else:
            self.v_est += self.params.penalty_step


class NodeBehavior:
    """Base decision object for one node's sensing conduct.

    Subclasses override :meth:`on_event` and :meth:`on_quiet_window`.
    The harness calls :meth:`observe_outcome` after every CH decision the
    node participated in, enabling the smart models' TI tracking.
    """

    #: Paper fault level: None for correct nodes, else 0, 1 or 2.
    level: Optional[int] = None

    #: True iff :meth:`on_quiet_window` is referentially inert for this
    #: instance -- draws nothing from ``rng``, mutates no state, and
    #: always returns ``None`` -- so a caller sweeping many nodes may
    #: skip the call entirely without perturbing any random stream.
    #: Conservative default: subclasses opt in.
    quiet_inert: bool = False

    #: True iff the class overrides :meth:`observe_outcome`, i.e. a CH
    #: verdict can change its state.  Derived per class, never set by
    #: hand, so a receiver whose behaviour ignores verdicts skips the
    #: participant lookup without missing an override.
    observes_outcomes: bool = False

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.observes_outcomes = (
            cls.observe_outcome is not NodeBehavior.observe_outcome
        )

    @property
    def is_faulty(self) -> bool:
        """True for every category except correct nodes."""
        return self.level is not None

    def on_event(
        self,
        node_position: Point,
        event_location: Point,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        """Claimed event location, or ``None`` to stay silent.

        Binary experiments only use the ``None`` / not-``None``
        distinction.
        """
        raise NotImplementedError

    def on_quiet_window(
        self,
        node_position: Point,
        region: Region,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        """False-alarm opportunity: a claimed location, or ``None``.

        Called once per quiet window (no real event).  Correct and
        honest-phase nodes return ``None``.
        """
        return None

    def observe_outcome(self, rewarded: bool) -> None:
        """Feedback hook after a CH decision involving this node."""


class CorrectBehavior(NodeBehavior):
    """A correct node with a natural error rate.

    Parameters
    ----------
    sensing:
        Perception model (supplies the correct-node location sigma).
    miss_rate:
        NER applied to real events: probability the node naturally
        fails to report (missed alarm).
    false_alarm_rate:
        NER applied to quiet windows: probability of a natural false
        alarm.  The paper's Experiment 1 charges the whole NER to missed
        alarms, so this defaults to 0.
    """

    level = None

    def __init__(
        self,
        sensing: SensingModel,
        miss_rate: float = 0.0,
        false_alarm_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= miss_rate <= 1.0:
            raise ValueError(f"miss_rate must be in [0, 1], got {miss_rate}")
        if not 0.0 <= false_alarm_rate <= 1.0:
            raise ValueError(
                f"false_alarm_rate must be in [0, 1], got {false_alarm_rate}"
            )
        self.sensing = sensing
        self.miss_rate = miss_rate
        self.false_alarm_rate = false_alarm_rate
        # With no natural false alarms the quiet-window branch
        # short-circuits before its rng.random() draw.
        self.quiet_inert = false_alarm_rate == 0

    def on_event(
        self,
        node_position: Point,
        event_location: Point,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        if self.miss_rate > 0 and rng.random() < self.miss_rate:
            return None
        return self.sensing.perceive_location(event_location, rng)

    def on_quiet_window(
        self,
        node_position: Point,
        region: Region,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        if self.false_alarm_rate > 0 and rng.random() < self.false_alarm_rate:
            # A natural false alarm claims a location near the node.
            return self.sensing.perceive_location(
                node_position, rng, sigma=self.sensing.config.sensing_radius / 4.0
            )
        return None


class Level0Behavior(NodeBehavior):
    """Naive faulty node: random drops, false alarms, noisy locations.

    Parameters
    ----------
    sensing:
        Perception model shared with correct nodes (radius etc.).
    drop_rate:
        Probability of a missed alarm on a real event (Table 1 uses 50%
        for the binary model; Table 2's "drop packets 25% of the time").
    false_alarm_rate:
        Probability of raising a spurious report in a quiet window
        (Table 1 sweeps 0%, 10%, 75%).
    location_sigma:
        Gaussian noise of this node's location reports (Table 2 uses
        4.25 or 6.0 against correct nodes' 1.6 or 2.0).
    """

    level = 0

    def __init__(
        self,
        sensing: SensingModel,
        drop_rate: float = 0.5,
        false_alarm_rate: float = 0.0,
        location_sigma: float = 4.25,
    ) -> None:
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
        if not 0.0 <= false_alarm_rate <= 1.0:
            raise ValueError(
                f"false_alarm_rate must be in [0, 1], got {false_alarm_rate}"
            )
        _check_sigma(location_sigma)
        self.sensing = sensing
        self.drop_rate = drop_rate
        self.false_alarm_rate = false_alarm_rate
        self.location_sigma = location_sigma
        # Same short-circuit as CorrectBehavior: rate zero means the
        # quiet-window path neither draws nor reports.
        self.quiet_inert = false_alarm_rate == 0

    def on_event(
        self,
        node_position: Point,
        event_location: Point,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        if rng.random() < self.drop_rate:
            return None
        return self.sensing.perceive_location(
            event_location, rng, sigma=self.location_sigma
        )

    def on_quiet_window(
        self,
        node_position: Point,
        region: Region,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        if self.false_alarm_rate > 0 and rng.random() < self.false_alarm_rate:
            # A fabricated event anywhere in the node's sensing range.
            # hi * rng.random() is rng.uniform(0.0, hi) bit for bit
            # (docs/protocol.md, "Random streams").
            bearing = 2.0 * np.pi * rng.random()
            radius = self.sensing.config.sensing_radius * rng.random()
            if not self.sensing.places:
                # Drawn, but not placed: a binary claim is the node's own.
                return node_position
            fake = Point(
                node_position.x + radius * float(np.cos(bearing)),
                node_position.y + radius * float(np.sin(bearing)),
            )
            return region.clamp(fake)
        return None


class Level1Behavior(NodeBehavior):
    """Smart independent liar with trust-index hysteresis (§2.1, §4.2).

    Wraps a lying core (level-0 parameters) and an honest core (correct
    parameters) and switches between them on the node's own TI estimate:
    lying stops when the estimate reaches ``lower_ti`` and resumes only
    after honest behaviour has rebuilt it past ``upper_ti``.
    """

    level = 1

    def __init__(
        self,
        lying: Level0Behavior,
        honest: CorrectBehavior,
        estimator: TrustEstimator,
        lower_ti: float = 0.5,
        upper_ti: float = 0.8,
    ) -> None:
        if not 0.0 <= lower_ti < upper_ti <= 1.0:
            raise ValueError(
                f"need 0 <= lower_ti < upper_ti <= 1, got "
                f"{lower_ti}, {upper_ti}"
            )
        self.lying = lying
        self.honest = honest
        self.estimator = estimator
        self.lower_ti = lower_ti
        self.upper_ti = upper_ti
        self._currently_lying = True

    @property
    def currently_lying(self) -> bool:
        """Whether the node is in its attack phase right now."""
        return self._currently_lying

    def _update_phase(self) -> None:
        ti = self.estimator.ti
        if self._currently_lying and ti <= self.lower_ti:
            self._currently_lying = False
        elif not self._currently_lying and ti >= self.upper_ti:
            self._currently_lying = True

    def on_event(
        self,
        node_position: Point,
        event_location: Point,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        self._update_phase()
        core = self.lying if self._currently_lying else self.honest
        return core.on_event(node_position, event_location, rng)

    def on_quiet_window(
        self,
        node_position: Point,
        region: Region,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        self._update_phase()
        core = self.lying if self._currently_lying else self.honest
        return core.on_quiet_window(node_position, region, rng)

    def observe_outcome(self, rewarded: bool) -> None:
        self.estimator.observe_outcome(rewarded)


class CollusionCoordinator:
    """Shared brain of a level-2 colluding group (§2.1, §4.2).

    Per event the coordinator makes one all-or-none decision for the
    whole group: stay silent together, or report the *same* fabricated
    location (one Gaussian draw with the faulty sigma, shared by every
    member).  The group also runs a shared hysteresis on the *mean* of
    its members' TI estimates, so the whole cell goes quiet together
    when its standing erodes -- the collective analogue of the level-1
    policy.

    The colluders "are assumed to be connected in a way that is
    undetectable by the reliable nodes" (§2.1); here that out-of-band
    link is simply shared Python state.
    """

    def __init__(
        self,
        sensing: SensingModel,
        rng: np.random.Generator,
        location_sigma: float = 4.25,
        silence_rate: float = 0.25,
        lower_ti: float = 0.5,
        upper_ti: float = 0.8,
    ) -> None:
        if not 0.0 <= silence_rate <= 1.0:
            raise ValueError(
                f"silence_rate must be in [0, 1], got {silence_rate}"
            )
        if not 0.0 <= lower_ti < upper_ti <= 1.0:
            raise ValueError(
                f"need 0 <= lower_ti < upper_ti <= 1, got "
                f"{lower_ti}, {upper_ti}"
            )
        _check_sigma(location_sigma)
        self.sensing = sensing
        self._rng = rng
        self.location_sigma = location_sigma
        self.silence_rate = silence_rate
        self.lower_ti = lower_ti
        self.upper_ti = upper_ti
        self._members: Dict[int, TrustEstimator] = {}
        self._currently_lying = True
        # Cache of the per-event group decision, keyed by a caller-chosen
        # event token so all members of one event share one draw.
        self._decision_token: Optional[object] = None
        self._decision: Optional[Point] = None

    def enroll(self, node_id: int, estimator: TrustEstimator) -> None:
        """Add a member's estimator to the shared hysteresis input."""
        self._members[node_id] = estimator

    @property
    def currently_lying(self) -> bool:
        return self._currently_lying

    def _mean_estimated_ti(self) -> float:
        if not self._members:
            return 1.0
        # Left to right in enrolment order: the mean is compared exactly
        # against lower_ti / upper_ti, and ``sum()`` of floats rounds
        # differently from CPython 3.12 on.
        total = 0.0
        for estimator in self._members.values():
            total += estimator.ti
        return total / len(self._members)

    def _update_phase(self) -> None:
        mean_ti = self._mean_estimated_ti()
        if self._currently_lying and mean_ti <= self.lower_ti:
            self._currently_lying = False
        elif not self._currently_lying and mean_ti >= self.upper_ti:
            self._currently_lying = True

    def group_decision(
        self, event_token: object, event_location: Point
    ) -> Optional[Point]:
        """The location every member reports for this event, or ``None``.

        A ``None`` with the group in honest phase means "members act
        honestly on their own" and is distinguished by
        :meth:`is_lying_for`, which the behaviour checks first.
        """
        if event_token != self._decision_token:
            self._decision_token = event_token
            self._update_phase()
            if not self._currently_lying:
                self._decision = None
            elif self._rng.random() < self.silence_rate:
                self._decision = None  # the whole group stays silent
            else:
                self._decision = self.sensing.perceive_location(
                    event_location, self._rng, sigma=self.location_sigma
                )
        return self._decision

    def is_lying_for(self, event_token: object) -> bool:
        """Whether the cached decision for this token is an attack."""
        return self._decision_token == event_token and (
            self._currently_lying
        )


class Level2Behavior(NodeBehavior):
    """One member of a colluding level-2 group.

    All strategy lives in the shared :class:`CollusionCoordinator`; the
    member contributes its TI estimator and defers every per-event
    decision.  Outside attack phases the member behaves like the given
    honest core.
    """

    level = 2
    # Colluders stay silent between events, unconditionally: the
    # quiet-window hook touches neither rng nor coordinator state.
    quiet_inert = True

    def __init__(
        self,
        node_id: int,
        coordinator: CollusionCoordinator,
        honest: CorrectBehavior,
        estimator: TrustEstimator,
    ) -> None:
        self.node_id = node_id
        self.coordinator = coordinator
        self.honest = honest
        self.estimator = estimator
        coordinator.enroll(node_id, estimator)
        self._current_event_token: Optional[object] = None

    def set_event_token(self, token: object) -> None:
        """Tell the member which event the next ``on_event`` refers to.

        The harness sets the same token (the ground-truth event id) on
        every colluder before querying them, which is how one shared
        coordinator draw serves the whole group.
        """
        self._current_event_token = token

    def on_event(
        self,
        node_position: Point,
        event_location: Point,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        token = self._current_event_token
        if token is None:
            # No token supplied: fall back to a per-call token so the
            # behaviour still works standalone (each call = one event).
            token = object()
        decision = self.coordinator.group_decision(token, event_location)
        if self.coordinator.is_lying_for(token):
            return decision  # shared fake location, or joint silence
        return self.honest.on_event(node_position, event_location, rng)

    def on_quiet_window(
        self,
        node_position: Point,
        region: Region,
        rng: np.random.Generator,
    ) -> Optional[Point]:
        # The paper's level-2 attack is scoped to real events; colluders
        # stay quiet between events to protect their standing.
        return None

    def observe_outcome(self, rewarded: bool) -> None:
        self.estimator.observe_outcome(rewarded)
