"""Scoring a simulation run against ground truth.

The paper's accuracy metric (§1, §4.2): "fraction of instances when an
event occurrence is correctly detected, and its location determined
within the given error bound" -- for location runs, "the number of
events detected by the CH within r_error of the actual event".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.clusterctl.head import DecisionRecord
from repro.network.geometry import Point
from repro.sensors.generator import GroundTruthEvent


@dataclass(frozen=True)
class EventOutcome:
    """How one ground-truth event fared.

    Attributes
    ----------
    event_id / time / location:
        The ground truth.
    detected:
        Whether a CH verdict upheld the event (and, in location mode,
        placed it within ``r_error``).
    localisation_error:
        Distance between the decided and true locations; ``None`` when
        undetected or in binary mode.
    """

    event_id: int
    time: float
    location: Point
    detected: bool
    localisation_error: Optional[float] = None


@dataclass
class RunMetrics:
    """Aggregate results of one simulation run."""

    outcomes: List[EventOutcome] = field(default_factory=list)
    false_positive_decisions: int = 0
    quiet_windows: int = 0
    decisions_total: int = 0
    diagnosed_nodes: Tuple[int, ...] = ()
    truly_faulty_nodes: Tuple[int, ...] = ()

    @property
    def events_total(self) -> int:
        """Number of ground-truth events scored."""
        return len(self.outcomes)

    @property
    def events_detected(self) -> int:
        """Ground-truth events correctly detected."""
        return sum(1 for o in self.outcomes if o.detected)

    @property
    def accuracy(self) -> float:
        """The paper's headline metric; 1.0 for an empty run."""
        if not self.outcomes:
            return 1.0
        return self.events_detected / self.events_total

    @property
    def false_positive_rate(self) -> float:
        """Fraction of quiet windows producing a spurious 'occurred'."""
        if self.quiet_windows == 0:
            return 0.0
        return self.false_positive_decisions / self.quiet_windows

    @property
    def mean_localisation_error(self) -> Optional[float]:
        """Mean error over detected, located events (None if none).

        Sums left to right from 0.0, not with ``sum()`` (whose float
        association changed in CPython 3.12).
        """
        total = 0.0
        count = 0
        for o in self.outcomes:
            if o.detected and o.localisation_error is not None:
                total += o.localisation_error
                count += 1
        if not count:
            return None
        return total / count

    @property
    def diagnosis_recall(self) -> float:
        """Fraction of truly faulty nodes diagnosed (1.0 when none exist)."""
        if not self.truly_faulty_nodes:
            return 1.0
        diagnosed = set(self.diagnosed_nodes)
        return sum(
            1 for n in self.truly_faulty_nodes if n in diagnosed
        ) / len(self.truly_faulty_nodes)

    @property
    def diagnosis_false_positives(self) -> int:
        """Correct nodes wrongly diagnosed as faulty."""
        faulty = set(self.truly_faulty_nodes)
        return sum(1 for n in self.diagnosed_nodes if n not in faulty)

    @property
    def diagnosis_precision(self) -> float:
        """Fraction of diagnosed nodes that are truly faulty (1.0 when
        nothing was diagnosed -- no accusation, no false accusation)."""
        if not self.diagnosed_nodes:
            return 1.0
        faulty = set(self.truly_faulty_nodes)
        return sum(
            1 for n in self.diagnosed_nodes if n in faulty
        ) / len(self.diagnosed_nodes)

    def accuracy_over_windows(self, window: int) -> List[Tuple[int, float]]:
        """Accuracy series over consecutive event windows of size ``window``.

        Returns ``[(window_index, accuracy), ...]`` -- the x/y series
        of the Experiment-3 decay figures.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        series: List[Tuple[int, float]] = []
        ordered = sorted(self.outcomes, key=lambda o: (o.time, o.event_id))
        for start in range(0, len(ordered), window):
            chunk = ordered[start : start + window]
            detected = sum(1 for o in chunk if o.detected)
            series.append((start // window, detected / len(chunk)))
        return series


def score_run(
    events: Sequence[GroundTruthEvent],
    decisions: Sequence[DecisionRecord],
    round_interval: float,
    r_error: Optional[float] = None,
    quiet_window_offset: Optional[float] = None,
) -> Tuple[List[EventOutcome], int]:
    """Match CH decisions to ground-truth events by time window.

    Parameters
    ----------
    events:
        Ground truth, with each round's events stamped at the round time.
    decisions:
        The CH's decision log.
    round_interval:
        Time between event rounds.  A decision belongs to the round
        whose window ``[t, t + round_interval)`` contains it (or
        ``[t, t + quiet_window_offset)`` when quiet windows are driven).
    r_error:
        Location mode: a detection only counts within this distance.
        ``None`` selects binary matching (any upheld decision in the
        window counts).
    quiet_window_offset:
        When quiet windows run at ``round_time + offset``, event
        decisions must land before the offset; decisions after it are
        quiet-window verdicts.  Returns those upheld spurious verdicts
        as the second element.

    Returns
    -------
    (outcomes, false_positives):
        One outcome per ground-truth event, plus the count of
        quiet-window decisions that wrongly upheld an event.
    """
    if round_interval <= 0:
        raise ValueError("round_interval must be positive")
    event_deadline = (
        quiet_window_offset if quiet_window_offset is not None
        else round_interval
    )

    outcomes: List[EventOutcome] = []
    used_decision_ids: set = set()
    for event in events:
        window_decisions = [
            d
            for d in decisions
            if event.time <= d.time < event.time + event_deadline
            and d.occurred
            and d.decision_id not in used_decision_ids
        ]
        detected = False
        error: Optional[float] = None
        if r_error is None:
            if window_decisions:
                detected = True
                used_decision_ids.add(window_decisions[0].decision_id)
        else:
            best = None
            for d in window_decisions:
                if d.location is None:
                    continue
                dist = d.location.distance_to(event.location)
                if dist <= r_error and (best is None or dist < best[0]):
                    best = (dist, d)
            if best is not None:
                detected = True
                error = best[0]
                used_decision_ids.add(best[1].decision_id)
        outcomes.append(
            EventOutcome(
                event_id=event.event_id,
                time=event.time,
                location=event.location,
                detected=detected,
                localisation_error=error,
            )
        )

    false_positives = 0
    if quiet_window_offset is not None:
        event_times = sorted({e.time for e in events})
        for d in decisions:
            if not d.occurred or d.decision_id in used_decision_ids:
                continue
            in_quiet = any(
                t + quiet_window_offset <= d.time < t + round_interval
                for t in event_times
            )
            if in_quiet:
                false_positives += 1
    return outcomes, false_positives
