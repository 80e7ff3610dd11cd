"""Differential replay: DES runs vs bare trust sessions, bit for bit.

A :class:`~repro.experiments.harness.SimulationRun` built with
``journal=True`` records every decided window's raw inputs.  Feeding
those records through :meth:`~repro.service.session.TrustSession.
replay_window` on a *bare* session -- no simulator, no radio, no clock
-- must land in the identical final state: same TIs, same verdict
timeline, same diagnosed set.  That is the proof the cluster head and
the service expose one decision engine.

Decision *ids* are compared only within the replay (dense from 1): the
DES draws from the process-shared allocator, the bare session from its
own -- that independence is the point of the id-allocator fix.
"""

import json

import pytest

from repro.chaos.invariants import run_fingerprint
from repro.experiments.harness import SimulationRun
from repro.service.session import SessionConfig, TrustSession


def des_run(mode, journal, **overrides):
    kwargs = dict(
        mode=mode,
        n_nodes=25,
        field_side=50.0,
        sensing_radius=20.0,
        faulty_ids=(0, 1, 2),
        diagnosis_threshold=0.3,
        seed=77,
        journal=journal,
    )
    if mode == "binary":
        kwargs.update(n_nodes=10, faulty_ids=(0, 1), seed=11)
    kwargs.update(overrides)
    return SimulationRun(**kwargs)


def session_for(run):
    """A bare session configured identically to ``run``'s cluster head."""
    config = run.ch.config
    return TrustSession(
        run.deployment,
        SessionConfig(
            mode=config.mode,
            sensing_radius=config.sensing_radius,
            r_error=config.r_error,
            trust=config.trust,
            use_trust=config.use_trust,
            diagnosis_threshold=config.diagnosis_threshold,
            tie_breaks_to_occurred=config.tie_breaks_to_occurred,
            owner_id=run.ch.node_id,
        ),
        members=run.ch.members,
    )


def strip_ids(decisions):
    return [
        (d.time, d.occurred, d.location, d.supporters, d.dissenters)
        for d in decisions
    ]


def replay(run):
    """JSON round-trip the journal, then replay it on a bare session."""
    records = json.loads(json.dumps(run.session_journal()))
    session = session_for(run)
    for record in records:
        session.replay_window(record)
    return session


class TestDifferentialReplay:
    def test_location_replay_matches_live_run(self):
        run = des_run("location", journal=True).run(8)
        session = replay(run)

        assert session.tis() == run.trust_snapshot()
        assert strip_ids(session.decisions) == strip_ids(run.all_decisions())
        assert session.diagnosed() == run.ch.diagnoser.diagnosed
        # Bare-session ids are dense from 1 with no global resets.
        assert [d.decision_id for d in session.decisions] == list(
            range(1, len(session.decisions) + 1)
        )

    def test_binary_replay_matches_live_run(self):
        run = des_run("binary", journal=True).run(12)
        session = replay(run)

        assert session.tis() == run.trust_snapshot()
        assert strip_ids(session.decisions) == strip_ids(run.all_decisions())
        assert session.diagnosed() == run.ch.diagnoser.diagnosed


class TestJournalIsFreeOfSideEffects:
    @pytest.mark.parametrize("mode", ["binary", "location"])
    def test_journaled_run_bit_identical_to_plain(self, mode):
        plain = des_run(mode, journal=False).run(6)
        journaled = des_run(mode, journal=True).run(6)
        assert run_fingerprint(journaled) == run_fingerprint(plain)
        assert journaled.trust_snapshot() == plain.trust_snapshot()

    def test_journal_schema_validates(self):
        from repro.obs.export import validate_session_journal_record

        run = des_run("location", journal=True).run(6)
        records = json.loads(json.dumps(run.session_journal()))
        assert records, "run decided nothing -- journal empty"
        for record in records:
            validate_session_journal_record(record)
