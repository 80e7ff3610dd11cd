"""The events x decisions scan: the oracle for run scoring.

:func:`score_run` is the original matcher: every event scans the whole
decision log, and every unmatched upheld decision scans every round
time.  It is kept semantically frozen so the differential suite
(``tests/property/test_metrics_properties.py``) can prove the bisected
:func:`repro.experiments.metrics.score_run` equal to it: the same
outcomes and the same false-positive count for any log order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.metrics import EventOutcome
from repro.sensors.generator import GroundTruthEvent
from repro.service.session import DecisionRecord


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
