"""The per-seat shadow mirror: the oracle for :class:`HeadMirror`.

Before one mirror served both shadow CHs of a head, every SCH ran a
private copy of the head's computation: a plain
:class:`~repro.clusterctl.head.ClusterHead` that never announces, on a
tap of its own, starting from the trust snapshot the head imported.
:func:`tap_seat_mirror` builds exactly that, numbering its verdicts from
a standalone head's private allocator, so it leaves the run's
decision-id stream alone.  The differential suite in
``tests/clusterctl/test_shadow.py`` taps one beside every seat of a
rotating run and proves each seat's verdict sequence, and its mirror's
trust table, equal to its oracle's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from repro.clusterctl.head import ClusterHead
from repro.clusterctl.shadow import _Unobserved
from repro.network.geometry import Point


def tap_seat_mirror(
    ch: ClusterHead,
    node_id: int,
    position: Point,
    trust: Mapping[int, float],
) -> ClusterHead:
    """A private mirror of ``ch`` for one seat, tapped on ``ch``."""
    mirror = ClusterHead(
        node_id=node_id,
        position=position,
        deployment=ch.deployment,
        config=replace(ch.config, journal=False),
        t_out=ch.t_out,
        announce=False,
    )
    mirror.trust.import_state(trust)
    mirror.attach(_Unobserved(ch.sim), ch.channel)
    ch.channel.add_tap(ch.node_id, mirror)
    return mirror
