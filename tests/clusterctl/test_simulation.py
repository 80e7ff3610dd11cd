"""Tests for the rotating multi-cluster network (``SimulationRun``'s
``rotation`` policy)."""

import numpy as np
import pytest

from repro.clusterctl.leach import LeachConfig
from repro.experiments.harness import Rotation, SimulationRun
from repro.sensors.specs import CorrectSpec, FaultSpec


def build(n_nodes=49, faulty_count=0, seed=5, events_per_leadership=8,
          transfer_trust=True, **kwargs):
    rng = np.random.default_rng(seed + 99)
    faulty = tuple(
        int(x) for x in rng.choice(n_nodes, size=faulty_count, replace=False)
    )
    defaults = dict(
        n_nodes=n_nodes,
        field_side=70.0,
        sensing_radius=20.0,
        r_error=5.0,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
        faulty_ids=faulty,
        channel_loss=0.0,
        quiet_windows=False,
        seed=seed,
        rotation=Rotation(
            leach=LeachConfig(ch_fraction=0.08, ti_threshold=0.5),
            events_per_leadership=events_per_leadership,
            transfer_trust=transfer_trust,
        ),
    )
    defaults.update(kwargs)
    return SimulationRun(**defaults), faulty


def lead(run, leaderships):
    """Run ``leaderships`` whole leaderships of event rounds."""
    return run.run(leaderships * run.rotation.events_per_leadership)


def leaders(run):
    return {ch for record in run.rounds for ch in record.cluster_heads}


class TestRotation:
    def test_each_round_elects_heads_and_covers_all_nodes(self):
        sim, _ = build()
        lead(sim, 3)
        assert len(sim.rounds) == 3
        for record in sim.rounds:
            assert len(record.cluster_heads) >= 1
            covered = set(record.cluster_heads)
            for members in record.membership.values():
                covered.update(members)
            assert covered == set(range(49))

    def test_leadership_rotates_across_rounds(self):
        sim, _ = build(events_per_leadership=2)
        lead(sim, 8)
        assert len(leaders(sim)) >= 5

    def test_shadows_appointed_per_cluster(self):
        sim, _ = build()
        lead(sim, 2)
        for record in sim.rounds:
            for ch, shadows in record.shadows.items():
                assert len(shadows) <= 2
                assert all(s >= 20_000 for s in shadows)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            build(events_per_leadership=0)[0]
        with pytest.raises(ValueError):
            SimulationRun(n_nodes=10, faulty_ids=(99,), quiet_windows=False,
                          rotation=Rotation())
        sim, _ = build()
        with pytest.raises(ValueError):
            sim.run(0)


class TestDetection:
    def test_clean_network_detects_nearly_everything(self):
        sim, _ = build(faulty_count=0)
        lead(sim, 4)
        metrics = sim.metrics()
        assert metrics.events_total == 32
        assert metrics.accuracy >= 0.9

    def test_compromised_minority_is_masked_across_rotations(self):
        sim, faulty = build(faulty_count=15, seed=7)
        lead(sim, 5)
        assert sim.metrics().accuracy >= 0.8

    def test_registry_separates_populations(self):
        sim, faulty = build(faulty_count=15, seed=7)
        lead(sim, 5)
        registry = sim.trust_snapshot()
        honest = [ti for n, ti in registry.items() if n not in faulty]
        lying = [ti for n, ti in registry.items() if n in faulty]
        assert lying, "faulty nodes should appear in the registry"
        assert sum(honest) / len(honest) > sum(lying) / len(lying) + 0.2


class TestTrustHandOff:
    def test_transfer_preserves_state_across_rotation(self):
        """With the §2 hand-off, the registry's view of liars keeps
        worsening across leadership changes."""
        sim, faulty = build(faulty_count=15, seed=11,
                            events_per_leadership=5)
        lead(sim, 2)
        early = sim.trust_snapshot()
        early_lying = sum(early.get(n, 1.0) for n in faulty) / len(faulty)
        lead(sim, 4)
        late = sim.trust_snapshot()
        late_lying = sum(late.get(n, 1.0) for n in faulty) / len(faulty)
        assert late_lying < early_lying

    def test_amnesia_ablation_weakens_masking(self):
        """Without trust transfer each new CH restarts from scratch, so
        accumulated evidence against liars is repeatedly discarded."""
        with_transfer, faulty = build(
            faulty_count=22, seed=13, events_per_leadership=4
        )
        lead(with_transfer, 6)
        amnesia, _ = build(
            faulty_count=22, seed=13, events_per_leadership=4,
            transfer_trust=False,
        )
        lead(amnesia, 6)
        reg_t = with_transfer.trust_snapshot()
        reg_a = amnesia.trust_snapshot()
        lying_t = sum(reg_t.get(n, 1.0) for n in faulty) / len(faulty)
        lying_a = sum(reg_a.get(n, 1.0) for n in faulty) / len(faulty)
        # The transferring network pushes liars' trust further down.
        assert lying_t < lying_a
