"""Failure-injection integration tests.

These stress the stack in ways the headline experiments do not: dead
data sinks, mid-run node deaths, and extreme channel conditions.
"""

import pytest

from repro.experiments.harness import SimulationRun
from repro.sensors.specs import CorrectSpec, FaultSpec


def small_run(**kwargs):
    defaults = dict(
        mode="location",
        n_nodes=25,
        field_side=50.0,
        sensing_radius=20.0,
        r_error=5.0,
        correct_spec=CorrectSpec(sigma=1.0),
        fault_spec=FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
        channel_loss=0.0,
        seed=3,
    )
    defaults.update(kwargs)
    return SimulationRun(**defaults)


class TestDeadSink:
    def test_dead_ch_produces_no_decisions_but_no_crash(self):
        run = small_run()
        run.build()
        run.ch.kill()
        run.run(5)
        assert run.metrics().accuracy == 0.0
        assert run.metrics().decisions_total == 0

    def test_ch_revival_resumes_decisions(self):
        run = small_run()
        run.build()
        run.ch.kill()
        # Revive before round 3 fires (rounds are at t=10,20,30,...).
        run.sim.at(25.0, run.ch.revive)
        run.run(5)
        metrics = run.metrics()
        # The first two rounds were lost; later rounds decided.
        detected_times = sorted(
            o.time for o in metrics.outcomes if o.detected
        )
        assert all(t >= 30.0 for t in detected_times)
        assert len(detected_times) >= 2


class TestMidRunDeaths:
    def test_sudden_majority_death_defeats_tibfit(self):
        """§3.1's caveat, reproduced with deaths instead of lies: a
        *sudden* silent majority wins every vote (nobody's trust was
        eroded beforehand), so the honest reporters get penalised and
        the system inverts -- exactly the 'faulty majority as initial
        condition' failure the paper concedes."""
        dead_ids = [i for i in range(25) if i % 2 == 0]  # 13 of 25
        run = small_run()
        run.build()

        def mass_death():
            for node_id in dead_ids:
                run.nodes[node_id].kill()

        run.sim.at(55.0, mass_death)
        run.run(16)
        metrics = run.metrics()
        late = [o for o in metrics.outcomes if o.time > 100.0]
        assert sum(o.detected for o in late) == 0
        # Trust inversion: the silent dead keep winning as dissenters
        # while the live reporters are punished for "false alarms".
        tis = run.trust_snapshot()
        dead_mean = sum(tis[i] for i in dead_ids) / len(dead_ids)
        live_mean = sum(
            tis[i] for i in range(25) if i % 2 == 1
        ) / 12
        assert dead_mean > live_mean

    def test_gradual_death_is_tolerated(self):
        """The same 52% death toll spread over time is absorbed: each
        dead cohort loses trust before the next falls, so the honest
        survivors keep out-voting the silent dead."""
        dead_ids = [i for i in range(25) if i % 2 == 0]
        run = small_run()
        run.build()
        # One death every 20 time units (every other event round).
        for idx, node_id in enumerate(dead_ids):
            run.sim.at(
                55.0 + 20.0 * idx, run.nodes[node_id].kill
            )
        run.run(40)
        metrics = run.metrics()
        late = [o for o in metrics.outcomes if o.time > 330.0]
        # All 13 are dead by t=295, yet detection continues.
        assert sum(o.detected for o in late) / len(late) >= 0.5
        tis = run.trust_snapshot()
        dead_mean = sum(tis[i] for i in dead_ids) / len(dead_ids)
        live_mean = sum(
            tis[i] for i in range(25) if i % 2 == 1
        ) / 12
        assert dead_mean < live_mean


class TestExtremeChannel:
    def test_total_channel_loss_yields_zero_accuracy(self):
        run = small_run(channel_loss=0.999999)
        run.run(5)
        assert run.metrics().accuracy == 0.0

    def test_heavy_loss_with_compensated_fr(self):
        """20% loss is survivable for detection (enough redundant
        reporters per event) even though trust erodes."""
        run = small_run(channel_loss=0.2, fault_rate=0.25)
        run.run(20)
        assert run.metrics().accuracy >= 0.7


class TestIsolationSideEffects:
    def test_isolated_node_cannot_rejoin_votes(self):
        run = small_run(
            faulty_ids=(12,),
            fault_spec=FaultSpec(level=0, drop_rate=1.0),
            diagnosis_threshold=0.4,
        )
        run.run(20)
        assert 12 in run.ch.diagnoser.diagnosed
        # After isolation the node never appears in a decision again.
        diagnosis_time = run.ch.diagnoser.log[0].time
        for decision in run.ch.decisions:
            if decision.time > diagnosis_time:
                assert 12 not in decision.supporters
                assert 12 not in decision.dissenters

    def test_run_metrics_capture_isolation(self):
        run = small_run(
            faulty_ids=(12,),
            fault_spec=FaultSpec(level=0, drop_rate=1.0),
            diagnosis_threshold=0.4,
        )
        run.run(20)
        metrics = run.metrics()
        assert metrics.diagnosed_nodes == (12,)
        assert metrics.diagnosis_recall == 1.0
        assert metrics.diagnosis_false_positives == 0
