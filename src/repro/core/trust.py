"""The trust-index (TI) model of §3.

Each node is assigned a trust index maintained at the cluster head.  The
CH keeps, per node, a fault accumulator ``v`` (non-negative real):

* a report the CH deems **faulty** increments ``v`` by ``1 - f_r``;
* a report the CH deems **correct** decrements ``v`` by ``f_r``, floored
  at zero;

and the trust index is the derived quantity ``TI = exp(-lambda * v)``,
so a fresh node starts at ``TI = 1`` and trust decays *exponentially*
with accumulated misbehaviour.  ``f_r`` is the *fault rate* the system
charges against -- the expected natural error rate of a correct node --
so a node erring exactly at rate ``f_r`` has ``E[delta v] = 0`` and its
TI performs a random walk around its current value, while a node erring
more often drifts down and one erring less often recovers toward 1.

``lambda`` controls how sharply trust decays; the paper uses 0.1 for the
binary experiments (Table 1) and 0.25 for the location experiments
(Table 2), and §5 analyses its effect on how fast compromised nodes can
be absorbed (Fig. 11).

:class:`TrustTable` is a flat-array engine.  Per slot it stores an
integer *value code* into an interned table of distinct accumulator
values; penalty and reward become memoised code transitions (the ``v``
and ``exp`` arithmetic for a given value runs once, ever), CTI votes
gather cached per-code TIs through numpy index arrays memoised per
partition, and batch :meth:`~TrustTable.penalize_many` /
:meth:`~TrustTable.reward_many` update many nodes without touching
``exp`` at all.

It is bit-identical to the original dict-of-entries table, which the
randomized equivalence suites keep as their oracle
(``tests/oracles/trust.py``), by construction:

* every interned TI is the same ``math.exp(-lam * v)`` the oracle
  evaluates (IEEE-754 negation commutes with multiplication, so
  ``(-lam) * v`` has the same bits as ``-(lam * v)``);
* every code transition applies the same per-element float arithmetic
  the oracle applies per node (``v + (1 - f_r)``; ``v - f_r`` with the
  ``_V_EPSILON`` snap to 0.0) -- equal inputs give equal outputs, so
  interning changes where the arithmetic runs, never its result;
* ``cti`` and the vote gather sum left-to-right in iterable order from
  the same 0.0 start (numpy is used only to *gather*, never to reduce,
  because numpy's pairwise reduction associates differently);
* never-seen nodes contribute exactly 1.0 to a CTI and are registered
  by updates but not by reads;
* ``below_threshold`` applies the same strict ``<`` and sorted-tuple
  convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.obs.spans import NULL_SPANS

_exp = math.exp


@dataclass(frozen=True)
class TrustParameters:
    """Parameters of the TI update rule.

    Attributes
    ----------
    lam:
        The exponential decay constant ``lambda`` (> 0).
    fault_rate:
        ``f_r``, the tolerated natural error rate (in ``[0, 1)``).  Note
        Table 2 deliberately sets ``f_r = 0.1`` above the correct nodes'
        NER "to compensate for wireless channel model losses".
    """

    lam: float = 0.25
    fault_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not 0.0 <= self.fault_rate < 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1), got {self.fault_rate}"
            )

    @property
    def penalty_step(self) -> float:
        """Increment applied to ``v`` for a faulty report: ``1 - f_r``."""
        return 1.0 - self.fault_rate

    @property
    def reward_step(self) -> float:
        """Decrement applied to ``v`` for a correct report: ``f_r``."""
        return self.fault_rate

    def ti_of(self, v: float) -> float:
        """Trust index corresponding to an accumulator value ``v``."""
        return math.exp(-self.lam * v)

    def v_of(self, ti: float) -> float:
        """Accumulator value corresponding to a trust index (inverse map)."""
        if not 0.0 < ti <= 1.0:
            raise ValueError(f"ti must be in (0, 1], got {ti}")
        return -math.log(ti) / self.lam


class _SlotEntry:
    """Live view of one node's slot in the flat-array table.

    Attribute reads (``v``, ``correct_reports``, ``faulty_reports``) see
    current state, attribute writes pass through to the arrays.
    """

    __slots__ = ("_table", "_slot")

    def __init__(self, table: "TrustTable", slot: int) -> None:
        self._table = table
        self._slot = slot

    @property
    def v(self) -> float:
        table = self._table
        return table._code_v[table._vc_buf[self._slot]]

    @v.setter
    def v(self, value: float) -> None:
        table = self._table
        table._vc_buf[self._slot] = table._intern(value)

    @property
    def correct_reports(self) -> int:
        table = self._table
        table._flush_counters()
        return int(table._correct[self._slot])

    @correct_reports.setter
    def correct_reports(self, value: int) -> None:
        table = self._table
        table._flush_counters()
        table._correct[self._slot] = value

    @property
    def faulty_reports(self) -> int:
        table = self._table
        table._flush_counters()
        return int(table._faulty[self._slot])

    @faulty_reports.setter
    def faulty_reports(self, value: int) -> None:
        table = self._table
        table._flush_counters()
        table._faulty[self._slot] = value

    def __repr__(self) -> str:
        return (
            f"TrustEntry(v={self.v}, correct_reports={self.correct_reports}, "
            f"faulty_reports={self.faulty_reports})"
        )


# Accumulated rounding from repeated reward subtractions is bounded
# by ~(recovery horizon) * ulp(1) ~ 1e-11; anything below this snaps
# to zero so a fully repaid penalty restores TI to exactly 1.0.
_V_EPSILON = 1e-9

#: Partition memos above this size are cleared wholesale (a miss only
#: costs re-normalisation, so the cap is purely a memory guard).
_PARTITION_CACHE_MAX = 1024

#: How many penalty / reward transitions to pre-build on a miss.  Keeps
#: a lockstep group climbing the penalty ladder off the miss path for
#: this many votes, without eagerly interning values a workload with
#: diverse per-node accumulators will never visit.
_CHAIN_STEPS = 8

#: Buffered counter batches are flushed past this many entries.
_PENDING_FLUSH = 4096

#: Fast partitions at or below this many participants vote through a
#: plain Python loop over the memoised slot list: numpy's per-ufunc
#: dispatch (~1-2us per gather / scatter) costs more than scalar code
#: table hops until the partition is a few dozen nodes wide.
_SCALAR_VOTE_MAX = 24

_NO_CODE = -1


class _Partition:
    """A memoised, normalised R/NR partition bound to one table.

    Stores the sorted tuples plus the slot gather array the vote hot
    path needs, so repeated votes over the same raw inputs skip the
    dedupe / sort / overlap-check / id->slot resolution entirely.  The
    memo is cleared whenever the slot layout changes (a node is
    registered or forgotten).
    """

    __slots__ = (
        "r",
        "nr",
        "n_r",
        "slots_all",
        "slots_list",
        "slots_r",
        "slots_nr",
        "flags_occ",
        "flags_not",
        "fast",
    )

    def __init__(self, r, nr, n_r, slots_all, fast):
        self.r = r
        self.nr = nr
        self.n_r = n_r
        self.slots_all = slots_all
        self.fast = fast
        if fast:
            self.slots_list = slots_all.tolist()
            self.slots_r = slots_all[:n_r]
            self.slots_nr = slots_all[n_r:]
            # Offsets into the interleaved transition table: winners
            # take the reward branch (2c + 1), losers the penalty
            # branch (2c).  One array per possible verdict.
            n_nr = len(slots_all) - n_r
            self.flags_occ = np.asarray([1] * n_r + [0] * n_nr, dtype=np.intp)
            self.flags_not = np.asarray([0] * n_r + [1] * n_nr, dtype=np.intp)
        else:
            self.slots_list = None
            self.slots_r = None
            self.slots_nr = None
            self.flags_occ = None
            self.flags_not = None


class TrustTable:
    """The cluster head's table of trust entries for its member nodes.

    Flat-array engine.  Per-node state is one integer *value code* per
    slot (``_vc_buf``), indexing interned per-code tables: the distinct
    accumulator value (``_code_v``), its trust index (``_code_ti``), and
    memoised penalty / reward successor codes.  Because every node walks
    the same step lattice, the float update and the ``exp`` for a given
    accumulator value run once ever; after that, updates are integer
    table hops and CTI gathers are cached-array reads.

    The table is the unit of state handed between cluster-head
    generations via the base station (§2): serialising ``{node: v}``
    preserves everything, because TI is derived.

    Parameters
    ----------
    params:
        TI update-rule parameters.
    node_ids:
        Nodes to pre-register at full trust (``v = 0``).  Unknown nodes
        are also auto-registered on first touch.
    """

    _V_EPSILON = _V_EPSILON

    #: Span collector (rebound by ``ClusterHead.attach``).  Class-level
    #: default so clones -- shadow CH mirrors built via ``__new__`` --
    #: fall back to the disabled collector and emit nothing.
    spans = NULL_SPANS
    #: True while ``cti_vote`` applies its transitions: the vote-level
    #: spans are emitted by :class:`~repro.core.binary.CtiVoter`, so the
    #: table-level transition spans stay silent to avoid doubles.
    _in_vote = False

    def __init__(
        self,
        params: TrustParameters,
        node_ids: Iterable[int] = (),
    ) -> None:
        self.params = params
        self._neg_lam = -params.lam
        # Slot state.  _vc_buf is the capacity-managed backing store;
        # the first len(_ids) entries are live.
        self._index: Dict[int, int] = {}
        self._ids: List[int] = []
        self._vc_buf = np.zeros(16, dtype=np.intp)
        self._vc_view: Optional[np.ndarray] = None
        # Counters are buffered: votes append their slot-array views to
        # pending lists (one O(1) append per group) and the per-slot
        # arrays materialise lazily on first read.
        self._correct = np.zeros(16, dtype=np.int64)
        self._faulty = np.zeros(16, dtype=np.int64)
        self._pending_correct: List[object] = []
        self._pending_faulty: List[object] = []
        # Interned value codes.  Code 0 is always v = 0.0 / TI = 1.0.
        self._code_v: List[float] = [0.0]
        self._code_ti: List[float] = [1.0]
        self._pen_next: List[int] = [_NO_CODE]
        self._rew_next: List[int] = [_NO_CODE]
        self._intern_map: Dict[float, int] = {0.0: 0}
        # Capacity-managed numpy mirrors of the code tables.  New codes
        # and backfilled transitions are written in place, so the hot
        # path never rebuilds them from the lists.
        # _trans_buf interleaves both transition tables -- pen at
        # 2*code, rew at 2*code + 1 -- so one vote updates winners and
        # losers with a single gather over ``2*code + is_winner``.
        self._code_ti_buf = np.ones(64, dtype=np.float64)
        self._trans_buf = np.full(128, _NO_CODE, dtype=np.intp)
        self._code_ti_view: Optional[np.ndarray] = None
        self._trans_view: Optional[np.ndarray] = None
        # Partition memo for the vote hot path; partitions graduate to
        # it on their second sighting (tracked in _partition_seen).
        self._partitions: Dict[Tuple[tuple, tuple], _Partition] = {}
        self._partition_seen: set = set()
        ids = list(dict.fromkeys(node_ids))
        if ids:
            n = len(ids)
            self._ids = ids
            self._index = {node_id: slot for slot, node_id in enumerate(ids)}
            cap = max(16, n)
            self._vc_buf = np.zeros(cap, dtype=np.intp)
            self._correct = np.zeros(cap, dtype=np.int64)
            self._faulty = np.zeros(cap, dtype=np.int64)

    # ------------------------------------------------------------------
    # Interning and slot management
    # ------------------------------------------------------------------
    def _intern(self, value: float) -> int:
        """Code for an accumulator value, creating it on first sight."""
        value = float(value)
        code = self._intern_map.get(value)
        if code is None:
            code = len(self._code_v)
            self._intern_map[value] = code
            self._code_v.append(value)
            # Same bits as params.ti_of(value): (-lam)*v == -(lam*v).
            ti = _exp(self._neg_lam * value)
            self._code_ti.append(ti)
            self._pen_next.append(_NO_CODE)
            self._rew_next.append(_NO_CODE)
            if code >= len(self._code_ti_buf):
                grow = len(self._code_ti_buf)
                self._code_ti_buf = np.concatenate(
                    [self._code_ti_buf, np.ones(grow, dtype=np.float64)]
                )
                self._trans_buf = np.concatenate(
                    [self._trans_buf, np.full(2 * grow, _NO_CODE, dtype=np.intp)]
                )
                self._code_ti_view = None
                self._trans_view = None
            self._code_ti_buf[code] = ti
            self._trans_buf[2 * code] = _NO_CODE
            self._trans_buf[2 * code + 1] = _NO_CODE
        return code

    def _pen_step(self, code: int) -> int:
        """Successor code after one penalty (memoised per code)."""
        nxt = self._intern(self._code_v[code] + self.params.penalty_step)
        self._pen_next[code] = nxt
        self._trans_buf[2 * code] = nxt
        return nxt

    def _rew_step(self, code: int) -> int:
        """Successor code after one reward (memoised per code)."""
        v = self._code_v[code] - self.params.reward_step
        nxt = self._intern(0.0 if v < _V_EPSILON else v)
        self._rew_next[code] = nxt
        self._trans_buf[2 * code + 1] = nxt
        return nxt

    def _extend_pen_chain(self, code: int, steps: int = _CHAIN_STEPS) -> None:
        """Pre-build a run of penalty transitions starting at ``code``.

        A node that keeps losing votes climbs a fresh accumulator value
        every window; building the ladder one step at a time would make
        every vote take the transition-miss path.  Pre-interning a chain
        amortises the scalar arithmetic to one miss per ``steps`` votes.
        Each chained value is exactly what repeated ``v += 1 - f_r``
        produces, so eager interning never changes an observable value.
        """
        for _ in range(steps):
            nxt = self._pen_next[code]
            if nxt == _NO_CODE:
                nxt = self._pen_step(code)
            code = nxt

    def _extend_rew_chain(self, code: int, steps: int = _CHAIN_STEPS) -> None:
        """Pre-build reward transitions from ``code`` down to the floor."""
        for _ in range(steps):
            nxt = self._rew_next[code]
            if nxt == _NO_CODE:
                nxt = self._rew_step(code)
            if nxt == code:
                break  # v = 0 is the reward fixed point
            code = nxt

    def _register(self, node_id: int) -> int:
        """Append a fresh full-trust slot for ``node_id``; returns it."""
        slot = len(self._ids)
        self._index[node_id] = slot
        self._ids.append(node_id)
        if slot >= len(self._vc_buf):
            grow = 2 * len(self._vc_buf)
            self._vc_buf = np.concatenate(
                [self._vc_buf, np.zeros(grow, dtype=np.intp)]
            )
            self._correct = np.concatenate(
                [self._correct, np.zeros(grow, dtype=np.int64)]
            )
            self._faulty = np.concatenate(
                [self._faulty, np.zeros(grow, dtype=np.int64)]
            )
        self._vc_buf[slot] = 0
        self._correct[slot] = 0
        self._faulty[slot] = 0
        self._vc_view = None
        if self._partitions:
            self._partitions.clear()
        return slot

    def _flush_counters(self) -> None:
        """Materialise buffered per-slot report-count increments.

        Pending entries are either single slot ints (scalar updates) or
        slot arrays (one whole vote group), applied with ``np.add.at``.
        """
        if self._pending_correct:
            correct = self._correct
            ints = [i for i in self._pending_correct if type(i) is int]
            arrays = [a for a in self._pending_correct if type(a) is not int]
            if ints:
                arrays.append(np.asarray(ints, dtype=np.intp))
            np.add.at(correct, np.concatenate(arrays), 1)
            self._pending_correct.clear()
        if self._pending_faulty:
            faulty = self._faulty
            ints = [i for i in self._pending_faulty if type(i) is int]
            arrays = [a for a in self._pending_faulty if type(a) is not int]
            if ints:
                arrays.append(np.asarray(ints, dtype=np.intp))
            np.add.at(faulty, np.concatenate(arrays), 1)
            self._pending_faulty.clear()

    def _vc(self) -> np.ndarray:
        """View of the live prefix of the slot-code buffer."""
        view = self._vc_view
        if view is None or len(view) != len(self._ids):
            view = self._vc_view = self._vc_buf[: len(self._ids)]
        return view

    def _ti_array(self) -> np.ndarray:
        """Live view of the per-code TI table's populated prefix."""
        n = len(self._code_v)
        arr = self._code_ti_view
        if arr is None or len(arr) != n:
            arr = self._code_ti_view = self._code_ti_buf[:n]
        return arr

    def _trans_array(self) -> np.ndarray:
        """Live view of the interleaved transition table's prefix."""
        n2 = 2 * len(self._code_v)
        arr = self._trans_view
        if arr is None or len(arr) != n2:
            arr = self._trans_view = self._trans_buf[:n2]
        return arr

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._index

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._ids))

    def entry(self, node_id: int) -> _SlotEntry:
        """A live view of the (auto-created) entry for ``node_id``."""
        slot = self._index.get(node_id)
        if slot is None:
            slot = self._register(node_id)
        return _SlotEntry(self, slot)

    def ti(self, node_id: int) -> float:
        """Trust index of ``node_id`` (1.0 for never-seen nodes)."""
        slot = self._index.get(node_id)
        if slot is None:
            return 1.0
        return self._code_ti[self._vc_buf[slot]]

    def cti(self, node_ids: Iterable[int]) -> float:
        """Cumulative trust index of a group (§3.1).

        Sums left-to-right in iterable order (the association the
        oracle's ``sum`` uses); never-seen nodes count 1.0 and are *not*
        registered.
        """
        get = self._index.get
        vc = self._vc_buf
        code_ti = self._code_ti
        total = 0.0
        for node_id in node_ids:
            slot = get(node_id)
            total += 1.0 if slot is None else code_ti[vc[slot]]
        return total

    def total_ti(self) -> float:
        """Sum of every registered node's TI, in ascending id order.

        With :meth:`cti_complement` this makes a whole-table CTI query
        O(|group|); note the subtraction re-associates the float sum,
        so the complement is ulp-accurate rather than bit-identical to
        a direct gather -- which is why the in-protocol voter keeps
        exact per-group gathers (see ``docs/protocol.md``).  The fixed
        summation order keeps the result independent of slot layout.
        """
        vc = self._vc_buf
        code_ti = self._code_ti
        index = self._index
        return sum([code_ti[vc[index[n]]] for n in sorted(self._ids)])

    def cti_complement(self, node_ids: Iterable[int]) -> float:
        """CTI of every registered node *not* in ``node_ids``.

        Ids outside the table are ignored -- they are not registered
        members, so their complement weight is zero by definition.
        """
        get = self._index.get
        vc = self._vc_buf
        code_ti = self._code_ti
        inside = 0.0
        for node_id in set(node_ids):
            slot = get(node_id)
            if slot is not None:
                inside += code_ti[vc[slot]]
        return self.total_ti() - inside

    def tis(self) -> Dict[int, float]:
        """Snapshot mapping of node id to current TI."""
        code_ti = self._code_ti
        return {
            node_id: code_ti[c]
            for node_id, c in zip(self._ids, self._vc().tolist())
        }

    def code_table_size(self) -> int:
        """Number of interned accumulator values (code-table growth).

        The observability layer samples this as a gauge: unbounded
        growth means a workload keeps visiting fresh accumulator values
        and the interning memos stop paying for themselves.
        """
        return len(self._code_v)

    def below_threshold(self, ti_threshold: float) -> Tuple[int, ...]:
        """Node ids whose TI has fallen strictly below ``ti_threshold``."""
        if not self._ids:
            return ()
        tis = self._ti_array()[self._vc()]
        hits = np.nonzero(tis < ti_threshold)[0]
        if hits.size == 0:
            return ()
        ids = self._ids
        return tuple(sorted(ids[slot] for slot in hits.tolist()))

    # ------------------------------------------------------------------
    # CTI voting hot path
    # ------------------------------------------------------------------
    def _resolve_partition(
        self, reporters: Iterable[int], non_reporters: Iterable[int]
    ) -> _Partition:
        """Normalise an R/NR partition, memoised on the raw inputs.

        Raises ``ValueError`` on overlap, exactly like the oracle; a
        raising input is never cached, so it raises every time.

        Returns ``None`` on a partition's *first* sighting: the numpy
        gather arrays only pay for themselves when a partition repeats
        (steady cluster memberships, the figure benches), so unseen
        partitions are noted in ``_partition_seen`` and voted through
        the scalar path; a second sighting builds the fast partition.
        """
        key = (tuple(reporters), tuple(non_reporters))
        part = self._partitions.get(key)
        if part is not None:
            return part
        seen = self._partition_seen
        if key not in seen:
            if len(seen) >= _PARTITION_CACHE_MAX:
                seen.clear()
            seen.add(key)
            return None
        r_set = set(key[0])
        nr_set = set(key[1])
        overlap = r_set & nr_set
        if overlap:
            raise ValueError(
                f"nodes {sorted(overlap)} appear as both reporter and "
                "non-reporter"
            )
        r = tuple(sorted(r_set))
        nr = tuple(sorted(nr_set))
        get = self._index.get
        slots = [get(n) for n in r + nr]
        fast = None not in slots
        slots_all = np.asarray(slots, dtype=np.intp) if fast else None
        part = _Partition(r, nr, len(r), slots_all, fast)
        if len(self._partitions) >= _PARTITION_CACHE_MAX:
            self._partitions.clear()
        self._partitions[key] = part
        return part

    def cti_vote(
        self,
        reporters: Iterable[int],
        non_reporters: Iterable[int],
        apply_updates: bool = True,
        tie_breaks_to_occurred: bool = False,
    ) -> Tuple[bool, tuple, tuple, float, float, bool, tuple, tuple]:
        """One full §3.1 CTI vote: gather both groups, update both.

        Returns ``(occurred, r, nr, cti_r, cti_nr, tie, winners,
        losers)``; :class:`~repro.core.binary.CtiVoter` wraps this in a
        ``BinaryVoteResult``.  Bit-identical to the oracle's read /
        decide / reward / penalize sequence: numpy only gathers and
        scatters, sums stay sequential, and every new (value, step)
        pair runs through the scalar transition builder exactly once.
        """
        part = self._resolve_partition(reporters, non_reporters)
        if part is None or not part.fast:
            # Scalar path: a first-time partition (numpy setup has not
            # paid for itself yet) or one with an unregistered
            # participant (updates register it, which clears the memo;
            # once the partition repeats it resolves fully and fast).
            if part is None:
                r_set = set(reporters)
                nr_set = set(non_reporters)
                overlap = r_set & nr_set
                if overlap:
                    raise ValueError(
                        f"nodes {sorted(overlap)} appear as both reporter "
                        "and non-reporter"
                    )
                r = tuple(sorted(r_set))
                nr = tuple(sorted(nr_set))
            else:
                r, nr = part.r, part.nr
            cti_r = self.cti(r)
            cti_nr = self.cti(nr)
            tie = cti_r == cti_nr
            occurred = tie_breaks_to_occurred if tie else cti_r > cti_nr
            winners, losers = (r, nr) if occurred else (nr, r)
            if apply_updates:
                if self.spans.enabled:
                    # Suppress the batch helpers' own transition spans:
                    # the voter emits the vote-level ones.
                    self._in_vote = True
                    try:
                        self.reward_many(winners)
                        self.penalize_many(losers)
                    finally:
                        self._in_vote = False
                else:
                    self.reward_many(winners)
                    self.penalize_many(losers)
            return occurred, r, nr, cti_r, cti_nr, tie, winners, losers
        r, nr, n_r = part.r, part.nr, part.n_r

        slots = part.slots_list
        if len(slots) <= _SCALAR_VOTE_MAX:
            # Small-partition scalar path: below a few dozen
            # participants the vectorised branch's gathers and scatters
            # cost more in per-ufunc dispatch than plain code-table
            # hops.  Reads, sequential sums, and transitions are the
            # same per-element operations as the vectorised branch, so
            # result and trust state stay bit-identical.
            vc = self._vc_buf
            code_ti = self._code_ti
            codes = [int(vc[s]) for s in slots]
            cti_r = 0.0
            for c in codes[:n_r]:
                cti_r += code_ti[c]
            cti_nr = 0.0
            for c in codes[n_r:]:
                cti_nr += code_ti[c]
            tie = cti_r == cti_nr
            occurred = tie_breaks_to_occurred if tie else cti_r > cti_nr
            winners, losers = (r, nr) if occurred else (nr, r)
            if apply_updates:
                if occurred:
                    win_lo, win_hi = 0, n_r
                    lose_lo, lose_hi = n_r, len(slots)
                else:
                    win_lo, win_hi = n_r, len(slots)
                    lose_lo, lose_hi = 0, n_r
                rew_next = self._rew_next
                for i in range(win_lo, win_hi):
                    code = codes[i]
                    nxt = rew_next[code]
                    if nxt == _NO_CODE:
                        # Pre-build a chain run like the vectorised
                        # branch: a lockstep group climbing the ladder
                        # stays off the miss path for _CHAIN_STEPS
                        # votes.
                        self._extend_rew_chain(code)
                        rew_next = self._rew_next
                        nxt = rew_next[code]
                    vc[slots[i]] = nxt
                pen_next = self._pen_next
                for i in range(lose_lo, lose_hi):
                    code = codes[i]
                    nxt = pen_next[code]
                    if nxt == _NO_CODE:
                        self._extend_pen_chain(code)
                        pen_next = self._pen_next
                        nxt = pen_next[code]
                    vc[slots[i]] = nxt
                if occurred:
                    self._pending_correct.append(part.slots_r)
                    self._pending_faulty.append(part.slots_nr)
                else:
                    self._pending_correct.append(part.slots_nr)
                    self._pending_faulty.append(part.slots_r)
                if len(self._pending_faulty) > _PENDING_FLUSH:
                    self._flush_counters()
            return occurred, r, nr, cti_r, cti_nr, tie, winners, losers

        n_codes = len(self._code_v)
        slots_all = part.slots_all
        vc = self._vc()
        codes_all = vc[slots_all]
        ti_view = self._code_ti_view
        if ti_view is None or len(ti_view) != n_codes:
            ti_view = self._ti_array()
        ti_list = ti_view[codes_all].tolist()
        cti_r = sum(ti_list[:n_r])
        cti_nr = sum(ti_list[n_r:])
        tie = cti_r == cti_nr
        occurred = tie_breaks_to_occurred if tie else cti_r > cti_nr
        if occurred:
            winners, losers = r, nr
            flags = part.flags_occ
        else:
            winners, losers = nr, r
            flags = part.flags_not
        if apply_updates:
            trans_view = self._trans_view
            if trans_view is None or len(trans_view) != 2 * n_codes:
                trans_view = self._trans_array()
            # Winners hop their reward transition, losers their penalty
            # transition, in one gather over the interleaved table.
            idx = codes_all + codes_all
            idx += flags
            nxt = trans_view[idx]
            if nxt.size and nxt.min() == _NO_CODE:
                # First visit to some value: pre-build a run of the
                # transition chain, then redo the vectorised hop.
                for c, f in set(zip(codes_all.tolist(), flags.tolist())):
                    if f:
                        if self._rew_next[c] == _NO_CODE:
                            self._extend_rew_chain(c)
                    elif self._pen_next[c] == _NO_CODE:
                        self._extend_pen_chain(c)
                nxt = self._trans_array()[idx]
            vc[slots_all] = nxt
            if occurred:
                self._pending_correct.append(part.slots_r)
                self._pending_faulty.append(part.slots_nr)
            else:
                self._pending_correct.append(part.slots_nr)
                self._pending_faulty.append(part.slots_r)
            if len(self._pending_faulty) > _PENDING_FLUSH:
                self._flush_counters()
        return occurred, r, nr, cti_r, cti_nr, tie, winners, losers

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def penalize(self, node_id: int) -> float:
        """Charge one faulty report: ``v += 1 - f_r``.  Returns new TI."""
        slot = self._index.get(node_id)
        if slot is None:
            slot = self._register(node_id)
        code = int(self._vc_buf[slot])
        nxt = self._pen_next[code]
        if nxt == _NO_CODE:
            nxt = self._pen_step(code)
        self._vc_buf[slot] = nxt
        self._pending_faulty.append(slot)
        ti = self._code_ti[nxt]
        spans = self.spans
        if spans.enabled and not self._in_vote:
            spans.point(
                "trust.penalize",
                parent=spans.current,
                nodes=[node_id],
                ti=[ti],
            )
        return ti

    def reward(self, node_id: int) -> float:
        """Credit one correct report: ``v = max(0, v - f_r)``.  Returns TI."""
        slot = self._index.get(node_id)
        if slot is None:
            slot = self._register(node_id)
        code = int(self._vc_buf[slot])
        nxt = self._rew_next[code]
        if nxt == _NO_CODE:
            nxt = self._rew_step(code)
        self._vc_buf[slot] = nxt
        self._pending_correct.append(slot)
        ti = self._code_ti[nxt]
        spans = self.spans
        if spans.enabled and not self._in_vote:
            spans.point(
                "trust.reward",
                parent=spans.current,
                nodes=[node_id],
                ti=[ti],
            )
        return ti

    def penalize_many(self, node_ids: Iterable[int]) -> None:
        """Charge one faulty report to each node (batch, no TI returned).

        Callers must pass plain Python ints (the array decision kernel
        ``.tolist()``s its id arrays before calling): ``_index`` is a
        dict keyed on the ints given at construction, and ``np.int64``
        keys would miss the memoised slots.
        """
        spans = self.spans
        spanned = spans.enabled and not self._in_vote
        if spanned:
            node_ids = list(node_ids)
        index_get = self._index.get
        pen_next = self._pen_next
        pending = self._pending_faulty
        vc = self._vc_buf
        for node_id in node_ids:
            slot = index_get(node_id)
            if slot is None:
                slot = self._register(node_id)
                vc = self._vc_buf  # registration may reallocate
            code = int(vc[slot])
            nxt = pen_next[code]
            if nxt == _NO_CODE:
                nxt = self._pen_step(code)
            vc[slot] = nxt
            pending.append(slot)
        if spanned and node_ids:
            spans.point(
                "trust.penalize",
                parent=spans.current,
                nodes=list(node_ids),
                ti=[self.ti(n) for n in node_ids],
            )

    def reward_many(self, node_ids: Iterable[int]) -> None:
        """Credit one correct report to each node (batch, no TI returned).

        Applies the same floor-at-zero / ``_V_EPSILON`` snap as
        :meth:`reward` through the memoised reward transition.
        """
        spans = self.spans
        spanned = spans.enabled and not self._in_vote
        if spanned:
            node_ids = list(node_ids)
        index_get = self._index.get
        rew_next = self._rew_next
        pending = self._pending_correct
        vc = self._vc_buf
        for node_id in node_ids:
            slot = index_get(node_id)
            if slot is None:
                slot = self._register(node_id)
                vc = self._vc_buf
            code = int(vc[slot])
            nxt = rew_next[code]
            if nxt == _NO_CODE:
                nxt = self._rew_step(code)
            vc[slot] = nxt
            pending.append(slot)
        if spanned and node_ids:
            spans.point(
                "trust.reward",
                parent=spans.current,
                nodes=list(node_ids),
                ti=[self.ti(n) for n in node_ids],
            )

    def set_v(self, node_id: int, v: float) -> None:
        """Force a node's accumulator (used when restoring transfers)."""
        if v < 0:
            raise ValueError(f"v must be non-negative, got {v}")
        slot = self._index.get(node_id)
        if slot is None:
            slot = self._register(node_id)
        self._vc_buf[slot] = self._intern(v)

    def forget(self, node_id: int) -> None:
        """Drop a node's entry entirely (isolation from the cluster)."""
        slot = self._index.pop(node_id, None)
        if slot is None:
            return
        self._flush_counters()
        last = len(self._ids) - 1
        if slot != last:
            # Swap-remove: the last slot's node moves into the hole.
            moved = self._ids[last]
            self._ids[slot] = moved
            self._vc_buf[slot] = self._vc_buf[last]
            self._correct[slot] = self._correct[last]
            self._faulty[slot] = self._faulty[last]
            self._index[moved] = slot
        self._ids.pop()
        self._vc_buf[last] = 0
        self._correct[last] = 0
        self._faulty[last] = 0
        self._vc_view = None
        if self._partitions:
            self._partitions.clear()

    # ------------------------------------------------------------------
    # Serialisation / hand-off
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[int, float]:
        """``{node_id: v}`` snapshot for transfer to the base station."""
        code_v = self._code_v
        return {
            node_id: code_v[c]
            for node_id, c in zip(self._ids, self._vc().tolist())
        }

    def import_state(self, state: Mapping[int, float]) -> None:
        """Merge a transferred ``{node_id: v}`` snapshot into this table."""
        for node_id, v in state.items():
            self.set_v(node_id, v)

    def clone(self) -> "TrustTable":
        """Array copy -- shadow cluster heads mirror the CH this way."""
        self._flush_counters()
        n = len(self._ids)
        copy = TrustTable.__new__(TrustTable)
        copy.params = self.params
        copy._neg_lam = self._neg_lam
        copy._index = dict(self._index)
        copy._ids = list(self._ids)
        copy._vc_buf = self._vc_buf[:n].copy() if n else np.zeros(
            16, dtype=np.intp
        )
        copy._vc_view = None
        copy._correct = self._correct[:n].copy() if n else np.zeros(
            16, dtype=np.int64
        )
        copy._faulty = self._faulty[:n].copy() if n else np.zeros(
            16, dtype=np.int64
        )
        copy._pending_correct = []
        copy._pending_faulty = []
        # Code tables are value-deterministic for fixed parameters, but
        # successor memos backfill in place, so clones take own copies.
        copy._code_v = list(self._code_v)
        copy._code_ti = list(self._code_ti)
        copy._pen_next = list(self._pen_next)
        copy._rew_next = list(self._rew_next)
        copy._intern_map = dict(self._intern_map)
        copy._code_ti_buf = self._code_ti_buf.copy()
        copy._trans_buf = self._trans_buf.copy()
        copy._code_ti_view = None
        copy._trans_view = None
        copy._partitions = {}
        copy._partition_seen = set(self._partition_seen)
        return copy

    def __repr__(self) -> str:
        return (
            f"TrustTable(lambda={self.params.lam}, f_r={self.params.fault_rate}, "
            f"nodes={len(self._ids)})"
        )
