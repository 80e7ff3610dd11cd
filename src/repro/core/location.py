"""The verdict type of location determination (§3.2).

The cluster head resolves each report's ``(r, theta)`` offset into an
absolute location, groups the resolved locations into event clusters
(:func:`repro.core.clustering.cluster_reports_flat`), and then runs one
CTI vote *per event cluster*: the cluster's members are the reporters
``R`` supporting "an event happened at this cluster's centre of
gravity", and the remaining event neighbours of that centre form ``NR``.
A cluster whose vote passes yields a located event; clusters formed by
stray or malicious reports are out-voted by the (trusted) silent
neighbours and their members are penalised.  That pipeline is
:class:`repro.core.decision_kernel.DecisionKernel`; each cluster's
verdict is one :class:`LocatedDecision`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.network.geometry import Point


@dataclass(frozen=True)
class LocatedDecision:
    """The CH's verdict for one event cluster.

    Attributes
    ----------
    occurred:
        Whether the CTI vote upheld this cluster as a real event.
    location:
        The event cluster's centre of gravity (the estimated event
        location when ``occurred``).
    supporters / dissenters:
        Node ids in ``R`` / ``NR`` for this cluster's vote.
    vote:
        The underlying vote result (CTI or majority, depending on the
        kernel's voter); ``None`` when the cluster refuted itself.
    """

    occurred: bool
    location: Point
    supporters: Tuple[int, ...]
    dissenters: Tuple[int, ...]
    vote: object
    #: The ``window.cluster`` span this decision came from (0 when span
    #: collection is disabled).  Excluded from equality: span ids are
    #: bookkeeping, not part of the verdict.
    span_id: int = field(default=0, compare=False)

    def localisation_error(self, true_location: Point) -> float:
        """Distance between the decided and the true event location."""
        return self.location.distance_to(true_location)
