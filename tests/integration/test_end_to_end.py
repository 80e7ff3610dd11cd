"""Integration tests: full protocol scenarios across module boundaries."""

import numpy as np
import pytest

from repro.experiments.harness import SimulationRun
from repro.sensors.specs import CorrectSpec, FaultSpec


class TestStatefulMaskingEndToEnd:
    """The paper's headline behaviour reproduced on the full stack."""

    def test_tibfit_survives_gradual_majority_compromise(self):
        """Start clean, compromise nodes in stages: once state is built,
        accuracy survives past 50% compromised (§1, §3.1, §5)."""
        run = SimulationRun(
            mode="binary",
            n_nodes=10,
            field_side=30.0,
            sensing_radius=100.0,
            lam=0.25,
            fault_rate=0.01,
            correct_spec=CorrectSpec(miss_rate=0.0),
            fault_spec=FaultSpec(level=0, drop_rate=1.0),
            channel_loss=0.0,
            seed=5,
        )
        # Compromise 1 node every 10 rounds: 7 of 10 by round 70.
        for step in range(7):
            run.schedule_compromise(10 * (step + 1), [step])
        run.run(90)
        metrics = run.metrics()
        late = [o for o in metrics.outcomes if o.time > 750.0]
        # During the last stretch 70% of the network lies, yet the CH
        # still detects every event.
        assert all(o.detected for o in late)

    def test_baseline_fails_under_the_same_decay(self):
        run = SimulationRun(
            mode="binary",
            n_nodes=10,
            field_side=30.0,
            sensing_radius=100.0,
            lam=0.25,
            fault_rate=0.01,
            use_trust=False,
            correct_spec=CorrectSpec(miss_rate=0.0),
            fault_spec=FaultSpec(level=0, drop_rate=1.0),
            channel_loss=0.0,
            seed=5,
        )
        for step in range(7):
            run.schedule_compromise(10 * (step + 1), [step])
        run.run(90)
        late = [o for o in run.metrics().outcomes if o.time > 750.0]
        # 3 honest reporters vs 7 silent liars: majority voting fails.
        assert not any(o.detected for o in late)


class TestLocationPipelineEndToEnd:
    def test_localisation_error_is_bounded_by_r_error(self):
        run = SimulationRun(
            mode="location",
            n_nodes=49,
            field_side=70.0,
            sensing_radius=20.0,
            r_error=5.0,
            correct_spec=CorrectSpec(sigma=1.6),
            faulty_ids=(),
            channel_loss=0.0,
            seed=9,
        )
        run.run(30)
        metrics = run.metrics()
        assert metrics.accuracy == 1.0
        for outcome in metrics.outcomes:
            assert outcome.localisation_error <= 5.0

    def test_diagnosed_liars_stop_damaging_the_network(self):
        """§4.2: once a faulty node's TI crosses the threshold it is
        removed, 'eliminating them from causing future damage'."""
        rng = np.random.default_rng(17)
        faulty = tuple(int(x) for x in rng.choice(49, size=10, replace=False))
        run = SimulationRun(
            mode="location",
            n_nodes=49,
            field_side=70.0,
            sensing_radius=20.0,
            r_error=5.0,
            correct_spec=CorrectSpec(sigma=1.6),
            fault_spec=FaultSpec(level=0, drop_rate=0.5, sigma=8.0),
            faulty_ids=faulty,
            diagnosis_threshold=0.2,
            channel_loss=0.0,
            seed=17,
        )
        run.run(60)
        metrics = run.metrics()
        diagnosed_faulty = set(metrics.diagnosed_nodes) & set(faulty)
        assert len(diagnosed_faulty) >= 5  # most liars caught
        assert metrics.diagnosis_false_positives <= 2
        late = [o for o in metrics.outcomes if o.time > 400.0]
        assert sum(o.detected for o in late) / len(late) >= 0.9

    def test_concurrent_events_both_located(self):
        run = SimulationRun(
            mode="location",
            n_nodes=100,
            field_side=100.0,
            sensing_radius=20.0,
            r_error=5.0,
            correct_spec=CorrectSpec(sigma=1.0),
            faulty_ids=(),
            channel_loss=0.0,
            concurrent_batch=2,
            seed=21,
        )
        run.run(20)
        metrics = run.metrics()
        assert metrics.events_total == 40
        assert metrics.accuracy >= 0.95


class TestSmartAdversaryEndToEnd:
    def test_level1_liars_are_forced_honest(self):
        """§4.2's mechanism: 'the trust index forces the malicious nodes
        to lie less frequently'.  After enough rounds every smart liar
        spends most of its time in the honest phase."""
        rng = np.random.default_rng(23)
        faulty = tuple(int(x) for x in rng.choice(49, size=20, replace=False))
        run = SimulationRun(
            mode="location",
            n_nodes=49,
            field_side=70.0,
            sensing_radius=20.0,
            r_error=5.0,
            correct_spec=CorrectSpec(sigma=1.6),
            fault_spec=FaultSpec(level=1, drop_rate=0.5, sigma=8.0),
            faulty_ids=faulty,
            channel_loss=0.0,
            seed=23,
        )
        run.run(60)
        metrics = run.metrics()
        assert metrics.accuracy >= 0.85
        # The adversaries' own TI estimates sit inside the hysteresis
        # band: they were throttled.
        throttled = 0
        for node_id in faulty:
            behavior = run.nodes[node_id].behavior
            if behavior.estimator.ti < 1.0:
                throttled += 1
        assert throttled >= 10

    def test_level2_collusion_damages_more_than_level1(self):
        def accuracy_for(level, seed=29):
            rng = np.random.default_rng(seed)
            faulty = tuple(
                int(x) for x in rng.choice(100, size=50, replace=False)
            )
            run = SimulationRun(
                mode="location",
                n_nodes=100,
                field_side=100.0,
                sensing_radius=20.0,
                r_error=5.0,
                correct_spec=CorrectSpec(sigma=1.6),
                fault_spec=FaultSpec(level=level, drop_rate=0.25, sigma=4.25),
                faulty_ids=faulty,
                channel_loss=0.0,
                seed=seed,
            )
            run.run(60)
            return run.metrics().accuracy

        assert accuracy_for(2) < accuracy_for(1)


class TestChannelRealism:
    def test_lossy_channel_costs_little_with_fr_compensation(self):
        """Table 2's f_r = 0.1 absorbs sub-1% channel losses: accuracy
        on a clean population stays near perfect."""
        run = SimulationRun(
            mode="location",
            n_nodes=49,
            field_side=70.0,
            sensing_radius=20.0,
            r_error=5.0,
            fault_rate=0.1,
            correct_spec=CorrectSpec(sigma=1.6),
            faulty_ids=(),
            channel_loss=0.008,
            seed=31,
        )
        run.run(40)
        metrics = run.metrics()
        assert metrics.accuracy >= 0.97
        # Honest nodes keep near-full trust despite channel drops.
        tis = run.trust_snapshot()
        assert sum(tis.values()) / len(tis) > 0.9
