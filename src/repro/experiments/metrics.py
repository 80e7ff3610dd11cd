"""Scoring a simulation run against ground truth.

The paper's accuracy metric (§1, §4.2): "fraction of instances when an
event occurrence is correctly detected, and its location determined
within the given error bound" -- for location runs, "the number of
events detected by the CH within r_error of the actual event".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.network.geometry import Point
from repro.sensors.generator import GroundTruthEvent
from repro.service.session import DecisionRecord


class EventOutcome(NamedTuple):
    """How one ground-truth event fared (a tuple record, one per event).

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
        The CH's decision log, in any order (a multi-head log need not
        be sorted by time).
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

    Events are matched in order, and a decision detects at most one
    event.  Each event bisects one time-sorted index of the upheld
    decisions for its window and scans the window in log order: binary
    mode takes the first unused decision, location mode the nearest
    within ``r_error`` (the first in log order on a tie).  A quiet-window
    false positive is found by bisecting the sorted round times.  A run
    costs O((E + D) log D) for E events and D decisions, and every
    window edge compares the same sums (``t + deadline``, ``t + offset``,
    ``t + round_interval``) a scan of every pair would.  Times are
    numbers, never NaN (the DES clock and the service's input rule
    guarantee it).

    >>> events = [GroundTruthEvent(1, 0.0, Point(5.0, 5.0)),
    ...           GroundTruthEvent(2, 10.0, Point(5.0, 5.0))]
    >>> decisions = [DecisionRecord(1, 0.5, True, None, (0, 1), (2,)),
    ...              DecisionRecord(2, 10.5, False, None, (0,), (1, 2))]
    >>> outcomes, false_positives = score_run(events, decisions, 10.0)
    >>> [outcome.detected for outcome in outcomes], false_positives
    ([True, False], 0)
    """
    if round_interval <= 0:
        raise ValueError("round_interval must be positive")
    event_deadline = (
        quiet_window_offset if quiet_window_offset is not None
        else round_interval
    )

    # Log positions of the upheld decisions, sorted by (time, position).
    index = sorted(
        (d.time, position)
        for position, d in enumerate(decisions)
        if d.occurred
    )
    times = [time for time, _ in index]
    positions = [position for _, position in index]

    outcomes: List[EventOutcome] = []
    used_decision_ids: set = set()
    for event in events:
        start = bisect_left(times, event.time)
        end = bisect_left(times, event.time + event_deadline, start)
        window = positions[start:end]
        if len(window) > 1:
            window.sort()  # log order
        detected = False
        error: Optional[float] = None
        if r_error is None:
            for position in window:
                decision_id = decisions[position].decision_id
                if decision_id not in used_decision_ids:
                    detected = True
                    used_decision_ids.add(decision_id)
                    break
        else:
            best = None
            for position in window:
                d = decisions[position]
                if d.location is None or d.decision_id in used_decision_ids:
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
        quiet_starts = [t + quiet_window_offset for t in event_times]
        quiet_ends = [t + round_interval for t in event_times]
        for d in decisions:
            if not d.occurred or d.decision_id in used_decision_ids:
                continue
            # The quiet windows opened by d.time are a prefix of the
            # round times, and the last of them closes latest.
            opened = bisect_right(quiet_starts, d.time)
            if opened and d.time < quiet_ends[opened - 1]:
                false_positives += 1
    return outcomes, false_positives
