"""End-to-end acceptance tests for the observability layer.

The load-bearing guarantees:

* ``metrics.jsonl`` holds the counts the run keeps anyway, and they
  agree with the event log: every chaos fault, verdict, diagnosis and
  CTI vote the spans record is counted once, and two runs of one
  config and seed write the same bytes;
* the exported session journal replays the run's trust history
  exactly: final TIs match the live :class:`TrustTable` bit for bit,
  the replaying diagnoser logs what the run's did, and each diagnosed
  node's first below-threshold sample time equals its diagnosis time;
* span collection (``spans=True``) is equally read-only: the
  ``run_fingerprint`` of a span-collecting run equals the plain run's,
  and the exported span artifacts reconstruct every verdict's causal
  chain.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.chaos.invariants import run_fingerprint
from repro.chaos.plan import builtin_plans
from repro.experiments.harness import SimulationRun
from repro.obs.export import read_jsonl, validate_artifacts
from repro.obs.provenance import ProvenanceIndex
from repro.obs.spans import SpanCollector
from repro.sensors.specs import CorrectSpec, FaultSpec
from repro.service.session import TrustSession

DIAGNOSIS_THRESHOLD = 0.5


def make_run(seed=7, spans=False, journal=False, **overrides):
    """An Experiment-1-style binary run with aggressive faulty nodes."""
    return SimulationRun(
        mode="binary",
        n_nodes=10,
        field_side=32.0,
        sensing_radius=64.0,  # everyone neighbours every event
        faulty_ids=(2, 3, 7),
        correct_spec=CorrectSpec(sigma=0.0, miss_rate=0.01),
        fault_spec=FaultSpec(level=0, drop_rate=0.5, false_alarm_rate=0.1),
        channel_loss=0.0,
        diagnosis_threshold=DIAGNOSIS_THRESHOLD,
        seed=seed,
        spans=spans,
        journal=journal,
        **overrides,
    )


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    run = make_run(journal=True)
    run.run(30)
    run.export_artifacts(out)
    return run, out


def replay_history(run, journal):
    """Replay exported journal records through a fresh session: the TI
    map after every decision as ``(time, tis)``, and the session."""
    session = TrustSession(
        run.ch.deployment, replace(run.ch.session.config, journal=False)
    )
    samples = [(0.0, session.tis())]
    for record in journal:
        for decision in session.replay_window(record):
            samples.append((decision.time, session.tis()))
    return samples, session


class TestBitIdentity:
    def test_observed_run_matches_unobserved(self, observed):
        run, _ = observed
        plain = make_run()
        plain.run(30)
        assert plain.trust_snapshot() == run.trust_snapshot()
        assert [d.occurred for d in plain.ch.decisions] == [
            d.occurred for d in run.ch.decisions
        ]
        assert plain.metrics().accuracy == run.metrics().accuracy


class TestArtifacts:
    def test_directory_validates(self, observed):
        _, out = observed
        counts = validate_artifacts(out)
        # No event log without spans=True: spans are opt-in.
        assert set(counts) == {
            "manifest.json", "metrics.jsonl", "session_journal.jsonl",
        }

    def test_manifest_counts_match_artifacts(self, observed):
        run, out = observed
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["counts"]) == {
            "events", "decisions", "events_fired",
        }
        assert manifest["counts"]["events"] == 30
        assert manifest["counts"]["decisions"] == len(run.ch.decisions)
        assert manifest["config"]["diagnosis_threshold"] == (
            DIAGNOSIS_THRESHOLD
        )
        assert manifest["config"]["rotation"] is None
        assert manifest["seed"] == 7
        assert manifest["timings"]["run_s"] > 0.0

    def test_final_tis_reconstruct_bit_identical(self, observed):
        run, out = observed
        samples, _ = replay_history(
            run, read_jsonl(out / "session_journal.jsonl")
        )
        assert len(samples) == len(run.ch.decisions) + 1
        # == on floats: bit-identical, not approximately equal
        assert samples[-1][1] == run.ch.trust.tis()

    def test_crossing_times_match_diagnoses(self, observed):
        run, out = observed
        samples, replay = replay_history(
            run, read_jsonl(out / "session_journal.jsonl")
        )
        diagnoses = replay.diagnoser.log
        assert diagnoses == run.ch.diagnoser.log
        assert diagnoses, "run must diagnose at least one faulty node"
        assert {d.node_id for d in diagnoses} <= set(run.initial_faulty)
        for diag in diagnoses:
            crossing = next(
                time for time, tis in samples
                if tis.get(diag.node_id, 1.0) < DIAGNOSIS_THRESHOLD
            )
            assert crossing == diag.time
            assert diag.ti_at_diagnosis < DIAGNOSIS_THRESHOLD


def chaos_tally(spans):
    """``chaos.*`` record values as the chaos spans tell them."""
    tally = Counter()
    for span in spans.spans("chaos"):
        fault = span.category[len("chaos."):]
        if fault == "intercept":
            action = span.args["action"]
            fault = f"drop.{span.args['why']}" if action == "drop" else action
        tally[f"chaos.{fault}"] += 1
    return dict(tally)


class TestCountsMatchSpans:
    """Each ``metrics.jsonl`` record read from the run's own tallies
    equals what the event log records, on a CH failover and on a
    rotating network whose compromised heads invert their verdicts."""

    @pytest.fixture(scope="class", params=["ch-crash", "corrupt-rotating"])
    def runs(self, request):
        """The span-collecting run and its spanless twin."""
        from tests.golden.builders import rotating_run

        def build(spans):
            if request.param == "ch-crash":
                plan = builtin_plans(300.0, 25)["ch-crash"]
                return make_location_run(
                    spans, chaos_plan=plan, channel_loss=0.05,
                ).run(30)
            return rotating_run(
                level=1, faulty_count=15, spans=spans,
                corrupt_elected_faulty=True, diagnosis_threshold=0.3,
            ).run(24)

        return build(True), build(False)

    def test_records_match_spans(self, runs):
        run, _ = runs
        values = {
            record["name"]: record.get("value", record.get("count"))
            for record in run.instruments()
        }
        assert {
            name: n for name, n in values.items() if name.startswith("chaos.")
        } == chaos_tally(run.spans)
        verdicts = [
            span.args["occurred"] for span in run.spans.spans("ch.decision")
        ]
        assert values["ch.decision.occurred"] == verdicts.count(True)
        assert values["ch.decision.rejected"] == verdicts.count(False)
        assert values["ch.diagnosis"] == len(run.spans.spans("ch.diagnosis"))
        votes = len(run.spans.spans("trust.vote"))
        assert values["trust.votes"] == votes
        assert values["trust.vote.margin"] == votes
        # Not vacuous: each run votes, rejects and diagnoses, and the
        # failover run loses its head once.
        assert votes and values["ch.decision.rejected"]
        assert values["ch.diagnosis"]
        if run.chaos is not None:
            assert values["chaos.ch-failover"] == 1

    def test_counts_do_not_depend_on_spans(self, runs):
        # Except the kernel's event count: span collection gives each
        # transmission its own delivery event.
        spanned, plain = runs
        unspanned = {"trust.vote.margin", "des.events_fired"}
        assert [
            record for record in spanned.instruments()
            if record["name"] not in unspanned
        ] == [
            record for record in plain.instruments()
            if record["name"] not in unspanned
        ]


class TestVoteMargin:
    """``trust.vote.margin`` covers exactly the ``trust.vote`` spans the
    collector still buffers, so it counts every CTI vote only while no
    span was evicted."""

    @staticmethod
    def records(run):
        return {record["name"]: record for record in run.instruments()}

    def test_counts_every_vote_when_nothing_is_evicted(self):
        run = make_run(spans=True).run(30)
        assert run.spans.evicted == 0
        records = self.records(run)
        assert records["trust.votes"]["value"] > 0
        assert (
            records["trust.vote.margin"]["count"]
            == records["trust.votes"]["value"]
        )

    def test_counts_only_buffered_votes_after_eviction(self):
        run = make_run(spans=True)
        run.spans = SpanCollector(max_spans=200)
        run.run(30)
        assert run.spans.evicted > 0
        records = self.records(run)
        buffered = len(run.spans.spans("trust.vote"))
        assert records["trust.vote.margin"]["count"] == buffered
        assert 0 < buffered < records["trust.votes"]["value"]


def test_metrics_jsonl_depends_only_on_config_and_seed(tmp_path, capsys):
    from repro.cli import main

    argv = ["trace", "--mode", "binary", "--nodes", "10", "--events", "40",
            "--seed", "7", "--percent-faulty", "30",
            "--diagnosis-threshold", "0.5"]
    for out in ("a", "b"):
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    assert b"trust.vote.margin" in first
    assert first == (tmp_path / "b" / "metrics.jsonl").read_bytes()


# ----------------------------------------------------------------------
# Span collection
# ----------------------------------------------------------------------
def make_location_run(spans, seed=77, **overrides):
    return SimulationRun(
        mode="location",
        n_nodes=25,
        field_side=50.0,
        sensing_radius=20.0,
        faulty_ids=(0, 1, 2),
        diagnosis_threshold=0.3,
        seed=seed,
        spans=spans,
        **overrides,
    )


class TestSpanBitIdentity:
    """Acceptance: spans-enabled runs are bit-identical to plain runs."""

    def test_location_fingerprint_unchanged(self):
        plain = make_location_run(spans=False)
        plain.run(8)
        spanned = make_location_run(spans=True)
        spanned.run(8)
        assert run_fingerprint(spanned) == run_fingerprint(plain)
        assert spanned.spans.emitted > 0

    def test_binary_fingerprint_unchanged(self):
        plain = make_run()
        plain.run(20)
        spanned = make_run(spans=True)
        spanned.run(20)
        assert run_fingerprint(spanned) == run_fingerprint(plain)
        assert spanned.spans.emitted > 0


class TestSpanArtifacts:
    @pytest.fixture(scope="class")
    def span_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("span_artifacts")
        run = make_location_run(spans=True)
        run.run(10)
        run.export_artifacts(out)
        return run, out

    def test_span_artifacts_validate(self, span_run):
        _, out = span_run
        counts = validate_artifacts(out)
        assert counts["spans.jsonl"] > 0
        assert counts["provenance.jsonl"] > 0
        assert counts["spans_chrome.json"] > 0

    def test_spans_jsonl_holds_decision_events(self, span_run):
        run, out = span_run
        records = read_jsonl(out / "spans.jsonl")
        decisions = [r for r in records if r["category"] == "ch.decision"]
        diagnoses = [r for r in records if r["category"] == "ch.diagnosis"]
        assert len(decisions) == len(run.ch.decisions)
        assert diagnoses, "run must diagnose at least one node"
        assert {r["args"]["node"] for r in diagnoses} == set(
            run.ch.diagnoser.diagnosed
        )

    def test_manifest_counts_spans(self, span_run):
        run, out = span_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["spans_emitted"] == run.spans.emitted
        assert manifest["counts"]["spans_evicted"] == run.spans.evicted

    def test_provenance_reconstructs_every_decision(self, span_run):
        run, out = span_run
        prov = ProvenanceIndex(read_jsonl(out / "spans.jsonl"))
        assert len(prov.decision_ids()) == len(run.ch.decisions)
        for decision_id in prov.decision_ids():
            record = prov.decision_provenance(decision_id)
            # Every verdict explains itself: a window, a vote (or a
            # self-refuting cluster), and per-report evidence chains
            # that reach back to a sensed event.
            assert record["window"] is not None
            assert record["evidence"], "no evidence hops reconstructed"
            for item in record["evidence"]:
                assert item["event_id"] is not None
        diagnosed = {
            d["node"]
            for r in prov.to_records()
            for d in r["diagnoses"]
        }
        assert diagnosed == set(run.ch.diagnoser.diagnosed)

    def test_explain_cli_renders_chain(self, span_run, capsys):
        from repro.cli import main

        _, out = span_run
        assert main(["explain", str(out)]) == 0
        listing = capsys.readouterr().out
        assert "decision" in listing
        prov = ProvenanceIndex(read_jsonl(out / "spans.jsonl"))
        decision_id = prov.decision_ids()[0]
        assert main(
            ["explain", str(out), "--decision", str(decision_id)]
        ) == 0
        rendered = capsys.readouterr().out
        assert "supporters" in rendered
        assert "evidence" in rendered

    def test_explain_cli_node_view(self, span_run, capsys):
        from repro.cli import main

        run, out = span_run
        node = run.initial_faulty[0]
        assert main(["explain", str(out), "--node", str(node)]) == 0
        assert "node" in capsys.readouterr().out

    def test_explain_cli_missing_spans_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["explain", str(tmp_path)]) == 2
        assert "spans.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        '{"id": 1',  # not JSON
        '{"id": 1, "parent": 0}',  # JSON, but no category, time or args
    ])
    def test_explain_cli_malformed_spans_exits_2(
        self, tmp_path, capsys, line
    ):
        from repro.cli import main

        spans_path = tmp_path / "spans.jsonl"
        spans_path.write_text(line + "\n")
        assert main(["explain", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert str(spans_path) in captured.err
        assert captured.out == ""

    def test_explain_cli_span_missing_a_read_arg_exits_2(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        spans_path = tmp_path / "spans.jsonl"
        spans_path.write_text(
            '{"id": 1, "parent": 0, "category": "ch.decision", '
            '"time": 0.0, "args": {}}\n'
        )
        assert main(["explain", str(tmp_path), "--decision", "1"]) == 2
        captured = capsys.readouterr()
        assert str(spans_path) in captured.err
        assert "decision_id" in captured.err
        assert captured.out == ""


class TestRotatingProvenance:
    """Exp 4's rotating network on the shared span path: LEACH heads,
    shadow CHs and BS hand-offs, each decision indexed exactly once."""

    @staticmethod
    def rotating(spans, **overrides):
        from tests.golden.builders import rotating_run

        run = rotating_run(level=1, faulty_count=15, spans=spans, **overrides)
        return run.run(24)

    @pytest.fixture(scope="class")
    def spanned(self):
        return self.rotating(spans=True)

    def test_spanned_rotating_run_matches_unspanned(self, spanned):
        from tests.golden.builders import rotating_document

        plain = self.rotating(spans=False)
        assert spanned.spans.emitted > 0
        assert rotating_document(spanned) == rotating_document(plain)

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_index_lists_exactly_the_heads_decisions(self, corrupt):
        run = self.rotating(spans=True, corrupt_elected_faulty=corrupt)
        prov = ProvenanceIndex(run.spans.to_records())
        # The shadow mirrors' verdicts are not network decisions.
        assert prov.decision_ids() == sorted(
            d.decision_id for d in run.all_decisions()
        )
        assert len(run.rounds) == 4

    def test_explain_renders_a_rotating_decision(self, spanned, tmp_path,
                                                 capsys):
        from repro.cli import main
        from repro.obs.export import write_jsonl

        write_jsonl(tmp_path / "spans.jsonl", spanned.spans.to_records())
        decision = spanned.all_decisions()[-1]
        assert main(
            ["explain", str(tmp_path), "--decision", str(decision.decision_id)]
        ) == 0
        rendered = capsys.readouterr().out
        assert f"decision {decision.decision_id} @ t={decision.time:g}" in (
            rendered
        )
        assert "evidence" in rendered

    def test_observed_rotating_run_exports_its_bundle(self, tmp_path):
        from tests.golden.builders import rotating_document

        run = self.rotating(spans=True, journal=True)
        plain = self.rotating(spans=False)
        assert rotating_document(run) == rotating_document(plain)
        run.export_artifacts(tmp_path)
        counts = validate_artifacts(tmp_path)
        decisions = len(run.all_decisions())
        assert counts["provenance.jsonl"] == decisions
        assert counts["session_journal.jsonl"] == len(run.session_journal())
        # Only the heads' verdicts count: each head's shadow mirror
        # decides every window again, unobserved.
        values = {
            record["name"]: record.get("value")
            for record in run.instruments()
        }
        assert (
            values["ch.decision.occurred"] + values["ch.decision.rejected"]
        ) == decisions
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["counts"]["decisions"] == decisions
        assert manifest["config"]["rotation"] == {
            "leach": {"ch_fraction": 0.08, "ti_threshold": 0.5,
                      "energy_floor": 0.05},
            "events_per_leadership": 6,
            "transfer_trust": True,
            "corrupt_elected_faulty": False,
        }


# ----------------------------------------------------------------------
# Ids are numbered by the run
# ----------------------------------------------------------------------
class TestIdsAreNumberedByTheRun:
    """Two runs of one config and seed, built one after the other in one
    process, export the same bytes: every id a run stamps (message,
    decision, circle) comes from the run's own streams, so nothing that
    ran before it in the process shows in its artifacts."""

    EXPORTS = ("spans.jsonl", "provenance.jsonl", "spans_chrome.json",
               "session_journal.jsonl", "metrics.jsonl")

    @staticmethod
    def failover():
        """A fixed location run whose head crashes: the promoted standby
        numbers its decisions from the same stream as the head."""
        plan = builtin_plans(300.0, 25)["ch-crash"]
        run = make_location_run(
            True, journal=True, chaos_plan=plan, channel_loss=0.05
        ).run(30)
        assert len(run._retired) == 1
        return run

    @staticmethod
    def rotating():
        """A rotating run: heads, their mirrors and the mirrors' seats."""
        from tests.golden.builders import rotating_run

        run = rotating_run(
            level=1, faulty_count=15, spans=True, journal=True,
            corrupt_elected_faulty=True,
        ).run(24)
        assert all(round_.shadows for round_ in run.rounds)
        return run

    @pytest.mark.parametrize("build", ["failover", "rotating"])
    def test_back_to_back_runs_export_identical_bytes(self, build, tmp_path):
        for out in ("first", "second"):
            run = getattr(self, build)()
            decision_ids = [d.decision_id for d in run.all_decisions()]
            assert decision_ids[0] == 1
            assert sorted(decision_ids) == sorted(set(decision_ids))
            run.export_artifacts(tmp_path / out)
        for name in self.EXPORTS:
            first = (tmp_path / "first" / name).read_bytes()
            assert first, name
            assert first == (tmp_path / "second" / name).read_bytes(), name
