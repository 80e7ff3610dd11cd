"""LEACH-style rotating cluster-head election with a trust threshold.

§2: "Each node is assigned a probability of becoming a CH at the
beginning of each round, which depends on the number of times it has
been made CH previously and the energy available in the node. ... We
have also incorporated the TI of the node as an additional parameter
... The TI of the node has to be higher than a threshold value to
ensure that only sufficiently trusted nodes can become CHs."

The election here follows the classic LEACH threshold

    T(n) = P / (1 - P * (r mod round(1/P)))   if n not CH in the last
                                              1/P rounds, else 0

scaled by the node's remaining-energy fraction, and gated by the
base-station TI check.  Non-candidates affiliate with the advertising
candidate of strongest signal (modelled as nearest in space, as signal
strength monotonically decays with distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.network.topology import Deployment


@dataclass(frozen=True)
class LeachConfig:
    """Election parameters.

    Attributes
    ----------
    ch_fraction:
        LEACH's ``P``: desired fraction of nodes serving as CH per round.
    ti_threshold:
        Minimum trust index to be admitted as CH (the paper's extension).
    energy_floor:
        Nodes at/below this remaining-energy fraction never stand.
    """

    ch_fraction: float = 0.1
    ti_threshold: float = 0.8
    energy_floor: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.ch_fraction < 1.0:
            raise ValueError(
                f"ch_fraction must be in (0, 1), got {self.ch_fraction}"
            )
        if not 0.0 <= self.ti_threshold <= 1.0:
            raise ValueError(
                f"ti_threshold must be in [0, 1], got {self.ti_threshold}"
            )
        if not 0.0 <= self.energy_floor < 1.0:
            raise ValueError(
                f"energy_floor must be in [0, 1), got {self.energy_floor}"
            )


class EnergyModel:
    """Per-node remaining-energy bookkeeping.

    A deliberately simple linear model: serving as CH for a round costs
    ``ch_round_cost`` and ordinary membership costs
    ``member_round_cost``.  LEACH's purpose --
    spreading the expensive CH duty -- only needs relative drain rates,
    not a radio-accurate energy model.
    """

    def __init__(
        self,
        node_ids,
        initial_energy: float = 1.0,
        ch_round_cost: float = 0.05,
        member_round_cost: float = 0.005,
    ) -> None:
        if initial_energy <= 0:
            raise ValueError("initial_energy must be positive")
        self.initial_energy = initial_energy
        self.ch_round_cost = ch_round_cost
        self.member_round_cost = member_round_cost
        self._energy: Dict[int, float] = {
            node_id: initial_energy for node_id in node_ids
        }

    def fraction_remaining(self, node_id: int) -> float:
        """Remaining energy as a fraction of the initial budget."""
        return max(0.0, self._energy.get(node_id, 0.0)) / self.initial_energy

    def is_alive(self, node_id: int) -> bool:
        """Whether the node still has energy."""
        return self._energy.get(node_id, 0.0) > 0.0

    def charge_round(self, ch_ids: Set[int]) -> None:
        """Apply one round's duty costs to every node."""
        for node_id in self._energy:
            cost = (
                self.ch_round_cost
                if node_id in ch_ids
                else self.member_round_cost
            )
            self._energy[node_id] = max(0.0, self._energy[node_id] - cost)


@dataclass
class RoundResult:
    """Outcome of one election round.

    Attributes
    ----------
    round_number:
        The round index the result belongs to.
    cluster_heads:
        Elected (and TI-admitted) CH node ids.
    membership:
        Mapping of CH id to sorted member node ids (members exclude the
        CH itself).  Every alive non-CH node appears exactly once.
    vetoed:
        Candidates rejected by the TI threshold.
    """

    round_number: int
    cluster_heads: Tuple[int, ...]
    membership: Dict[int, List[int]] = field(default_factory=dict)
    vetoed: Tuple[int, ...] = ()


class LeachElection:
    """Runs successive LEACH election rounds over a deployment.

    Parameters
    ----------
    deployment:
        Node positions (affiliation strength decays with distance).
    config:
        Election parameters.
    energy:
        Energy model consulted for candidacy scaling; charged per round.
    rng:
        Randomness for the self-election coin flips (stream ``"leach"``).
    ti_lookup:
        Callable mapping node id to its current trust index as known to
        the base station; implements the paper's TI admission gate.
    """

    def __init__(
        self,
        deployment: Deployment,
        config: LeachConfig,
        energy: EnergyModel,
        rng: np.random.Generator,
        ti_lookup=None,
    ) -> None:
        self.deployment = deployment
        self.config = config
        self.energy = energy
        self._rng = rng
        self._ti_lookup = ti_lookup if ti_lookup is not None else lambda _n: 1.0
        self.round_number = 0
        self._last_served: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Election
    # ------------------------------------------------------------------
    def threshold_for(self, node_id: int) -> float:
        """LEACH threshold ``T(n)`` scaled by remaining energy."""
        p = self.config.ch_fraction
        epoch = max(1, round(1.0 / p))
        last = self._last_served.get(node_id)
        if last is not None and self.round_number - last < epoch:
            return 0.0
        energy_fraction = self.energy.fraction_remaining(node_id)
        if energy_fraction <= self.config.energy_floor:
            return 0.0
        base = p / (1.0 - p * (self.round_number % epoch))
        return min(1.0, base * energy_fraction)

    def run_round(self) -> RoundResult:
        """Execute one full round: candidacy, veto, affiliation, charging.

        If no candidate survives the coin flips and the TI gate, the
        alive node with the highest ``(TI, energy)`` is drafted so the
        cluster never goes leaderless (the paper's base station
        "re-initiate[s] CH election" on veto; drafting is the fixed
        point of re-running until someone qualifies).
        """
        alive = [
            node_id
            for node_id in self.deployment.node_ids()
            if self.energy.is_alive(node_id)
        ]
        candidates = []
        vetoed = []
        for node_id in alive:
            if self._rng.random() < self.threshold_for(node_id):
                if self._ti_lookup(node_id) >= self.config.ti_threshold:
                    candidates.append(node_id)
                else:
                    vetoed.append(node_id)

        if not candidates:
            eligible = [
                n
                for n in alive
                if self._ti_lookup(n) >= self.config.ti_threshold
            ] or alive
            if eligible:
                candidates = [
                    max(
                        eligible,
                        key=lambda n: (
                            self._ti_lookup(n),
                            self.energy.fraction_remaining(n),
                            -n,
                        ),
                    )
                ]

        membership: Dict[int, List[int]] = {ch: [] for ch in candidates}
        if candidates:
            self._affiliate(alive, candidates, membership)
            for members in membership.values():
                members.sort()

        result = RoundResult(
            round_number=self.round_number,
            cluster_heads=tuple(sorted(candidates)),
            membership=membership,
            vetoed=tuple(sorted(vetoed)),
        )
        for ch in candidates:
            self._last_served[ch] = self.round_number
        self.energy.charge_round(set(candidates))
        self.round_number += 1
        return result

    def _affiliate(
        self,
        alive: List[int],
        candidates: List[int],
        membership: Dict[int, List[int]],
    ) -> None:
        """Assign every alive non-CH node to its strongest-signal CH.

        Free-space signal strength decays monotonically with distance,
        so "strongest signal" reduces to "nearest candidate".
        ``candidates`` is in ascending-id order (it is filled while
        iterating ``alive``, which is sorted), and only a strictly
        nearer candidate displaces the current choice, so a tie goes to
        the lower id.
        """
        positions = self.deployment.positions
        sqrt = math.sqrt
        heads = [(ch, positions[ch].x, positions[ch].y) for ch in candidates]
        for node_id in alive:
            if node_id in membership:
                continue
            p = positions[node_id]
            x = p.x
            y = p.y
            home = -1
            best = math.inf
            for ch, cx, cy in heads:
                dx = x - cx
                dy = y - cy
                d = sqrt(dx * dx + dy * dy)
                if d < best:
                    best = d
                    home = ch
            membership[home].append(node_id)

    def served_counts(self) -> Dict[int, int]:
        """How many rounds ago each node last served (diagnostic)."""
        return dict(self._last_served)
