"""Substrate microbenchmarks: DES kernel, voting, and CH geometry.

Unlike the figure benches (which run once and print data), these use
pytest-benchmark conventionally -- repeated timed rounds -- to track
the cost of the inner loops everything else sits on: the event heap,
the CTI vote, the §3.2 clustering heuristic, the event-neighbour
query and named random stream creation.  They exist so a performance
regression in the substrate is visible before it silently stretches
every experiment.
"""

import itertools

import numpy as np
import pytest

from repro.core.binary import CtiVoter
from repro.core.clustering import cluster_reports_flat
from repro.core.trust import TrustParameters, TrustTable
from repro.network.geometry import Point, Region
from repro.network.topology import grid_deployment, uniform_random_deployment
from repro.obs.spans import NULL_SPANS
from repro.simkernel.rng import RandomStreams
from repro.simkernel.simulator import Simulator


def _report_window(n):
    """A realistic n-report window: two true events plus ~17% liars."""
    per_blob = (n - n // 6) // 2
    scatter = n - 2 * per_blob
    return (
        [Point(20.0 + 0.1 * i, 20.0 - 0.07 * i) for i in range(per_blob)]
        + [Point(70.0 - 0.09 * i, 60.0 + 0.11 * i) for i in range(per_blob)]
        + [Point(7.0 * i % 97.0, 13.0 * i % 89.0) for i in range(scatter)]
    )


def _cluster(reports):
    """The kernel's clustering call over a window of ``Point`` claims."""
    xs = [p.x for p in reports]
    ys = [p.y for p in reports]
    return lambda: cluster_reports_flat(xs, ys, r_error=5.0)


def test_kernel_event_throughput(benchmark):
    """Schedule-and-fire cost for 10k chained events."""

    def run_chain():
        sim = Simulator(seed=0)
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.after(0.001, tick)

        sim.after(0.001, tick)
        sim.run()
        return sim.events_fired

    fired = benchmark(run_chain)
    assert fired == 10_000


def test_cti_vote_throughput(benchmark):
    """1000 votes over a 100-node table, updates applied."""

    def run_votes():
        table = TrustTable(
            TrustParameters(lam=0.25, fault_rate=0.1),
            node_ids=range(100),
        )
        voter = CtiVoter(table)
        reporters = list(range(60))
        silent = list(range(60, 100))
        for _ in range(1000):
            voter.decide(reporters, silent)
        return voter.votes_taken

    votes = benchmark(run_votes)
    assert votes == 1000


def test_cti_vote_throughput_n1000(benchmark):
    """1000 votes over a 1000-node table: scaling with partition size."""

    def run_votes():
        table = TrustTable(
            TrustParameters(lam=0.25, fault_rate=0.1),
            node_ids=range(1000),
        )
        voter = CtiVoter(table)
        reporters = list(range(600))
        silent = list(range(600, 1000))
        for _ in range(1000):
            voter.decide(reporters, silent)
        return voter.votes_taken

    votes = benchmark(run_votes)
    assert votes == 1000


def test_below_threshold_scan_n1000(benchmark):
    """2000 diagnosis scans over a 1000-node table with mixed trust."""
    table = TrustTable(
        TrustParameters(lam=0.25, fault_rate=0.1), node_ids=range(1000)
    )
    # Degrade a spread of nodes so the scan has real hits to collect.
    for node_id in range(0, 1000, 7):
        for _ in range(node_id % 11):
            table.penalize(node_id)

    def run_scans():
        hits = 0
        for _ in range(2000):
            hits += len(table.below_threshold(0.5))
        return hits

    hits = benchmark(run_scans)
    assert hits > 0


def test_clustering_throughput(benchmark):
    """The K-means heuristic over a 60-report window."""
    # A realistic window: two true events plus scattered liars.
    reports = (
        [Point(20.0 + 0.1 * i, 20.0 - 0.07 * i) for i in range(25)]
        + [Point(70.0 - 0.09 * i, 60.0 + 0.11 * i) for i in range(25)]
        + [Point(7.0 * i % 97.0, 13.0 * i % 89.0) for i in range(10)]
    )

    clusters = benchmark(_cluster(reports))
    assert len(clusters) >= 2


def test_clustering_throughput_n50(benchmark):
    """The clustering heuristic over a 50-report window."""
    clusters = benchmark(_cluster(_report_window(50)))
    assert len(clusters) >= 2


def test_clustering_throughput_n200(benchmark):
    """The clustering heuristic at event-region scale (200 reports)."""
    clusters = benchmark(_cluster(_report_window(200)))
    assert len(clusters) >= 2


def test_disabled_span_emit_overhead(benchmark):
    """50k guarded span emits against the disabled collector.

    Every span site is written ``if s.enabled: s.point(...)``, so a
    disabled run pays one attribute read per site.  The radio and CH paths each cross a span
    site per message, so this path regressing to an allocation or a
    dict touch would show up in every sweep.
    """
    s = NULL_SPANS

    def run_emits():
        emitted = 0
        for i in range(50_000):
            if s.enabled:  # pragma: no cover - disabled path
                s.point("radio.drop", parent=s.current, destination=i)
                emitted += 1
        return emitted

    emitted = benchmark(run_emits)
    assert emitted == 0
    assert s.emitted == 0
    assert len(s) == 0


def test_event_neighbors_n100(benchmark):
    """200 event-neighbour disk queries over Experiment 2's deployment."""
    deployment = grid_deployment(100, Region.square(100.0))
    deployment.ensure_index(20.0)
    queries = [
        Point(7.0 * i % 100.0, 13.0 * i % 100.0) for i in range(200)
    ]

    def run_queries():
        total = 0
        for q in queries:
            total += len(deployment.event_neighbors(q, 20.0))
        return total

    total = benchmark(run_queries)
    assert total > 0


def test_event_neighbors_n1000(benchmark):
    """200 disk queries over a dense 1000-node random deployment."""
    deployment = uniform_random_deployment(
        1000, Region.square(100.0), np.random.default_rng(17)
    )
    deployment.ensure_index(20.0)
    queries = [
        Point(7.0 * i % 100.0, 13.0 * i % 100.0) for i in range(200)
    ]

    def run_queries():
        total = 0
        for q in queries:
            total += len(deployment.event_neighbors(q, 20.0))
        return total

    total = benchmark(run_queries)
    assert total > 0


def _radio_net(n, loss=0.1, seed=3):
    from repro.network.node import NetworkNode
    from repro.network.radio import ChannelConfig, RadioChannel

    sim = Simulator(seed=seed)
    channel = RadioChannel(
        sim,
        ChannelConfig(loss_probability=loss, propagation_delay=0.01),
    )
    for i in range(n):
        channel.register(NetworkNode(i, Point(float(i % 10), float(i // 10))))
    return sim, channel


def test_unicast_batch_throughput(benchmark):
    """200 batched 49-report rounds into one CH (the harness hot path)."""
    from repro.network.messages import EventReportMessage

    sim, channel = _radio_net(50)
    sender_ids = list(range(1, 50))

    def run_batches():
        for _ in range(200):
            channel.unicast_batch(
                sender_ids,
                0,
                [EventReportMessage(sender=i) for i in sender_ids],
            )
        sim.run()
        return channel.sent

    sent = benchmark(run_batches)
    assert sent >= 200 * 49


def test_unicast_loop_throughput(benchmark):
    """The per-message oracle path at the same 200x49 scale, for contrast."""
    from repro.network.messages import EventReportMessage

    sim, channel = _radio_net(50)
    sender_ids = list(range(1, 50))

    def run_loops():
        for _ in range(200):
            for i in sender_ids:
                channel.unicast(
                    channel.node(i), 0, EventReportMessage(sender=i)
                )
        sim.run()
        return channel.sent

    sent = benchmark(run_loops)
    assert sent >= 200 * 49


def test_broadcast_throughput(benchmark):
    """100 broadcasts over a 100-node channel whose endpoints all read
    every broadcast, so each keeps its full fan-out."""
    from repro.network.messages import EventReportMessage

    sim, channel = _radio_net(100)
    sender = channel.node(0)

    def run_broadcasts():
        for _ in range(100):
            channel.broadcast(sender, EventReportMessage(sender=0))
        sim.run()
        return channel.sent

    sent = benchmark(run_broadcasts)
    assert sent >= 100 * 99


def test_announcement_fanout_n100(benchmark):
    """100 CH verdicts to 100 sensors, each verdict naming 12 of them.

    A sensor reads only the broadcasts that name it, so each fused
    delivery runs 12 handlers for 100 receivers.  The endpoints of
    ``test_broadcast_throughput`` read every broadcast and keep the
    full fan-out: the contrast case.
    """
    from repro.network.messages import ChDecisionAnnouncement
    from repro.network.node import NetworkNode
    from repro.network.radio import ChannelConfig, RadioChannel
    from repro.sensors.faults import CorrectBehavior
    from repro.sensors.node import SensorNode
    from repro.sensors.sensing import SensingConfig, SensingModel

    sim = Simulator(seed=3)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=0.008, propagation_delay=0.01)
    )
    sensing = SensingModel(SensingConfig(sensing_radius=20.0))
    rng = np.random.default_rng(0)
    for i in range(100):
        channel.register(SensorNode(
            i, Point(float(i % 10), float(i // 10)), CorrectBehavior(sensing),
            sensing, ch_id=100, rng=rng,
        ))
    head = NetworkNode(100, Point(5.0, 5.0))
    channel.register(head)
    verdicts = [
        ChDecisionAnnouncement(
            sender=100, decision_id=k, occurred=k % 2 == 0,
            reporters=tuple((7 * k + j) % 100 for j in range(8)),
            non_reporters=tuple((7 * k + 50 + j) % 100 for j in range(4)),
        )
        for k in range(100)
    ]

    def run_announcements():
        for verdict in verdicts:
            channel.broadcast(head, verdict)
        sim.run()
        return channel.sent

    sent = benchmark(run_announcements)
    assert sent >= 100 * 100


def test_kernel_periodic_timers(benchmark):
    """64 interleaved periodic timers x ~160 firings each."""

    def run_timers():
        sim = Simulator(seed=0)
        fired = [0]

        def tick():
            fired[0] += 1

        for i in range(64):
            sim.every(0.01 + 0.0001 * i, tick, count=160)
        sim.run()
        return fired[0]

    fired = benchmark(run_timers)
    assert fired == 64 * 160


# Per-window-size deployment density and blob layout: each event site's
# sensing disk (r_s = 20) must contain exactly the nodes reporting that
# blob, so votes are unanimous (zero dissenters) and trust state reaches
# a fixed point after the first window.  Without that, repeated timed
# windows keep penalising the same dissenters, their trust decays round
# after round, and the timed windows stop doing identical work.
_WINDOW_LAYOUTS = {
    # n: (grid nodes, field side, sites)
    8: (64, 100.0, (Point(35.0, 40.0),)),
    30: (121, 100.0, (Point(25.0, 25.0), Point(75.0, 70.0))),
    120: (225, 100.0, (Point(25.0, 25.0), Point(75.0, 25.0),
                       Point(25.0, 75.0), Point(75.0, 75.0))),
}


def _steady_window(deployment, n, sites, sensing_radius=20.0):
    """An n-report fault-free window: every event neighbour reports.

    Each site's reporters are exactly the nodes within ``r_s`` of it,
    claiming the site plus a tiny (well under ``r_error``) jitter --
    the common fault-free window of a low-fault sweep.  If the sites'
    disks hold fewer than ``n`` distinct reporters, the window is
    padded with duplicate reports (re-transmissions) that dedupe must
    drop, keeping the report count at exactly ``n``.
    """
    reporters = []   # (node_id, claim Point)
    for site in sites:
        for node_id in deployment.event_neighbors(site, sensing_radius):
            j = len(reporters)
            claim = Point(
                site.x + 0.02 * (j % 5) - 0.04,
                site.y + 0.015 * (j % 4) - 0.0225,
            )
            reporters.append((node_id, claim))
            if len(reporters) == n:
                return reporters
    dup = 0
    while len(reporters) < n:
        reporters.append(reporters[dup])
        dup += 1
    return reporters


def _decision_setup(n):
    """One steady-state n-report CH window, ingested ahead of time.

    Returns the kernel and the window's ``(node_id, x, y, time)`` rows
    in ``(time, node_id)`` delivery order, so the timed function
    measures the decision pipeline alone, the way production runs it
    (ingest happens at message arrival, decide at circle close).
    """
    from repro.core.decision_kernel import DecisionKernel

    n_nodes, side, sites = _WINDOW_LAYOUTS[n]
    deployment = grid_deployment(n_nodes, Region.square(side))
    reporters = _steady_window(deployment, n, sites)

    def make_kernel():
        return DecisionKernel(
            deployment=deployment, sensing_radius=20.0, r_error=5.0,
            voter=CtiVoter(TrustTable(
                TrustParameters(lam=0.25, fault_rate=0.1),
                node_ids=range(n_nodes),
            )),
        )

    # Arrival times ascend, so arrival order is delivery order.
    rows = [
        (node_id, claim.x, claim.y, 0.001 * i)
        for i, (node_id, claim) in enumerate(reporters)
    ]
    # Steady state sanity: every blob's vote must be unanimous, else
    # repeated windows drift trust state and the numbers stop meaning
    # "decision pipeline cost".
    for decision in make_kernel().decide_rows(rows):
        assert decision.occurred and not decision.dissenters
    return make_kernel(), rows


def _make_window_bench(n):
    def bench(benchmark):
        kernel, rows = _decision_setup(n)
        decisions = benchmark(kernel.decide_rows, rows)
        assert decisions

    return bench


# n=8 and n=30 are typical experiment windows; n=120 is event-region
# scale.
test_decision_window_n8 = _make_window_bench(8)
test_decision_window_n30 = _make_window_bench(30)
test_decision_window_n120 = _make_window_bench(120)


def test_topology_small_n_scan(benchmark):
    """400 neighbour + nearest queries over a small 36-node deployment.

    The disk queries build the grid lazily with the query radius as
    its cell size; ``nearest`` sorts every node by ``(distance, id)``.
    """
    deployment = grid_deployment(36, Region.square(60.0))
    queries = [
        Point(7.0 * i % 60.0, 13.0 * i % 60.0) for i in range(200)
    ]

    def run_queries():
        total = 0
        for q in queries:
            total += len(deployment.event_neighbors(q, 20.0))
            total += len(deployment.nearest(q, k=4))
        return total

    total = benchmark(run_queries)
    assert total > 0


def test_shared_topology_setup(benchmark):
    """500 memo-served deployments + indexes (the per-trial setup cost)."""
    from repro.network.topology import shared_grid_deployment

    region = Region.square(100.0)
    shared_grid_deployment(100, region, index_cell=20.0)  # warm the memo

    def run_setups():
        total = 0
        for _ in range(500):
            d = shared_grid_deployment(100, region, index_cell=20.0)
            total += len(d.event_neighbors(Point(50.0, 50.0), 20.0))
        return total

    total = benchmark(run_setups)
    assert total > 0


@pytest.mark.parametrize("seeds", ["repeated", "fresh"])
def test_stream_creation(benchmark, seeds):
    """100 ``node-{id}`` streams: a sweep's repeated run seed (every
    stream's seed words cached) against a fresh seed per round (every
    stream derived through SHA-256 and ``SeedSequence``)."""
    names = [f"node-{i}" for i in range(100)]
    fresh = itertools.count(10**9)

    def create():
        streams = RandomStreams(2005 if seeds == "repeated" else next(fresh))
        for name in names:
            streams.get(name)
        return streams

    assert len(list(benchmark(create).names())) == 100
