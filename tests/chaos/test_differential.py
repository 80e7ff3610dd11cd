"""Differential contract: an empty-plan chaos run is bit-identical to a
plain SimulationRun -- same decisions, trust, spans, RNG consumption --
and CH failover keeps the run scoreable across the head swap."""

from repro.chaos.invariants import InvariantChecker, run_fingerprint
from repro.chaos.plan import EMPTY_PLAN, ChCrash, FaultPlan
from repro.experiments.harness import SimulationRun


def make_run(**overrides):
    kwargs = dict(
        mode="binary",
        n_nodes=8,
        field_side=30.0,
        sensing_radius=100.0,
        faulty_ids=(0, 1),
        diagnosis_threshold=0.3,
        seed=21,
    )
    kwargs.update(overrides)
    return SimulationRun(**kwargs)


class TestEmptyPlanDifferential:
    def test_bit_identical_to_plain_run(self):
        plain = make_run(spans=True).run(10)
        chaos = make_run(chaos_plan=EMPTY_PLAN, spans=True).run(10)

        assert chaos.trust_snapshot() == plain.trust_snapshot()
        assert run_fingerprint(chaos) == run_fingerprint(plain)
        assert chaos.sim.events_fired == plain.sim.events_fired
        assert [(s.time, s.category) for s in chaos.spans] == [
            (s.time, s.category) for s in plain.spans
        ]
        assert (
            (chaos.channel.sent, chaos.channel.delivered,
             chaos.channel.dropped)
            == (plain.channel.sent, plain.channel.delivered,
                plain.channel.dropped)
        )
        # Decision timelines match field-for-field apart from the
        # process-global decision ids.
        strip = lambda d: (d.time, d.occurred, d.supporters, d.dissenters)
        assert (
            [strip(d) for d in chaos.all_decisions()]
            == [strip(d) for d in plain.ch.decisions]
        )

    def test_empty_plan_leaves_rng_streams_untouched(self):
        chaos = make_run(chaos_plan=EMPTY_PLAN).run(10)
        plain = make_run().run(10)
        # Next draw from every stream matches -> chaos consumed nothing.
        for name in ("channel", "events", "chaos", "node-0"):
            assert (
                chaos.sim.streams.get(name).random()
                == plain.sim.streams.get(name).random()
            )

    def test_location_mode_differential(self):
        plain = make_run(
            mode="location", n_nodes=25, field_side=50.0,
            sensing_radius=20.0, diagnosis_threshold=None,
        ).run(8)
        chaos = make_run(
            mode="location", n_nodes=25, field_side=50.0,
            sensing_radius=20.0, diagnosis_threshold=None,
            chaos_plan=EMPTY_PLAN,
        ).run(8)
        assert run_fingerprint(chaos) == run_fingerprint(plain)


class TestChFailover:
    def make_crash_run(self, failover=True, **overrides):
        plan = FaultPlan(
            name="crash",
            ch_crashes=(ChCrash(start=55.0, failover=failover),),
        )
        return make_run(chaos_plan=plan, **overrides)

    def test_failover_promotes_a_standby_head(self):
        run = self.make_crash_run().run(10)
        assert len(run._retired) == 1
        retired = run.channel.node(SimulationRun.CH_ID_OFFSET)
        assert not retired.alive
        assert run.ch.node_id == SimulationRun.CH_ID_OFFSET + 1
        assert run.ch.alive
        # Every sensor re-homed to the standby.
        assert all(n.ch_id == run.ch.node_id for n in run.nodes.values())

    def test_standby_inherits_trust_state(self):
        run = self.make_crash_run().run(10)
        retired = run.channel.node(SimulationRun.CH_ID_OFFSET)
        # TIs at crash time carried over: the standby's table contains
        # every node and the faulty nodes' TIs kept decaying afterwards.
        assert set(run.ch.trust.tis()) == set(retired.trust.tis())
        for node_id in (0, 1):
            assert run.ch.trust.tis()[node_id] <= retired.trust.tis()[node_id]

    def test_decisions_span_both_heads(self):
        run = self.make_crash_run().run(10)
        retired = run._retired[0]
        assert retired.decisions and run.ch.decisions
        merged = run.all_decisions()
        assert len(merged) == len(retired.decisions) + len(run.ch.decisions)
        assert merged == sorted(
            merged, key=lambda d: (d.time, d.decision_id)
        )
        # The run scores across the swap without losing rounds.
        assert run.metrics().decisions_total == len(merged)
        assert run.metrics().accuracy == 1.0

    def test_failover_run_passes_invariants(self):
        run = self.make_crash_run().run(10)
        assert InvariantChecker().check_run(run) == []

    def test_crash_without_failover_goes_headless(self):
        run = self.make_crash_run(failover=False).run(10)
        assert run._retired == []
        assert not run.ch.alive
        # Rounds after the crash produce no decisions.
        assert all(d.time < 55.0 for d in run.all_decisions())
        assert run.metrics().accuracy < 1.0

    def test_crash_with_recovery_resumes_deciding(self):
        plan = FaultPlan(
            ch_crashes=(ChCrash(start=55.0, end=75.0, failover=False),),
        )
        run = make_run(chaos_plan=plan).run(10)
        assert run.ch.alive
        times = [d.time for d in run.all_decisions()]
        assert any(t < 55.0 for t in times)
        assert any(t >= 75.0 for t in times)
        assert not any(55.0 <= t < 75.0 for t in times)

    def test_failover_emits_crash_and_failover_spans(self):
        run = self.make_crash_run(spans=True).run(10)
        head = SimulationRun.CH_ID_OFFSET
        (crash,) = run.spans.spans("chaos.ch-crash")
        (failover,) = run.spans.spans("chaos.ch-failover")
        assert (crash.time, crash.args) == (55.0, {"ch": head})
        assert (failover.time, failover.args) == (
            55.0, {"old": head, "new": head + 1}
        )

    def test_recovery_emits_crash_and_recover_spans(self):
        plan = FaultPlan(
            ch_crashes=(ChCrash(start=55.0, end=75.0, failover=False),),
        )
        run = make_run(chaos_plan=plan, spans=True).run(10)
        head = SimulationRun.CH_ID_OFFSET
        assert [
            (span.category, span.time, span.args)
            for span in run.spans.spans("chaos")
        ] == [
            ("chaos.ch-crash", 55.0, {"ch": head}),
            ("chaos.ch-recover", 75.0, {"ch": head}),
        ]

    def test_observed_failover_matches_unobserved(self):
        run = self.make_crash_run(spans=True).run(10)
        plain = self.make_crash_run().run(10)
        assert run_fingerprint(run) == run_fingerprint(plain)
        for counted in (run, plain):
            registry = counted.instruments()
            assert registry.counter("chaos.ch-crash").value == 1
            assert registry.counter("chaos.ch-failover").value == 1
            # Both heads' verdicts count, each once.
            assert (
                registry.counter("ch.decision.occurred").value
                + registry.counter("ch.decision.rejected").value
            ) == len(counted.all_decisions())
