"""Integration: the rotating multi-cluster network under smart adversaries.

The single-CH experiments cover levels 0-2; these tests confirm the
adversary models interact correctly with rotation and trust hand-off.
"""

import numpy as np
import pytest

from repro.clusterctl.leach import LeachConfig
from repro.experiments.harness import Rotation, SimulationRun
from repro.sensors.specs import CorrectSpec, FaultSpec


def build(level, faulty_count=15, seed=31, events_per_leadership=6,
          corrupt_elected_faulty=False, **kwargs):
    rng = np.random.default_rng(seed + 7)
    faulty = tuple(
        int(x) for x in rng.choice(49, size=faulty_count, replace=False)
    )
    defaults = dict(
        n_nodes=49,
        field_side=70.0,
        sensing_radius=20.0,
        r_error=5.0,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=FaultSpec(level=level, drop_rate=0.25, sigma=4.25),
        faulty_ids=faulty,
        channel_loss=0.0,
        quiet_windows=False,
        seed=seed,
        rotation=Rotation(
            leach=LeachConfig(ch_fraction=0.08, ti_threshold=0.5),
            events_per_leadership=events_per_leadership,
            corrupt_elected_faulty=corrupt_elected_faulty,
        ),
    )
    defaults.update(kwargs)
    return SimulationRun(**defaults), faulty


def lead(run, leaderships):
    """Run ``leaderships`` whole leaderships of event rounds."""
    return run.run(leaderships * run.rotation.events_per_leadership)


class TestSmartAdversariesUnderRotation:
    def test_level1_network_keeps_detecting(self):
        sim, _faulty = build(level=1)
        lead(sim, 5)
        assert sim.metrics().accuracy >= 0.8

    def test_level2_cells_survive_rotation(self):
        """The collusion coordinator is shared state outside any CH, so
        rotation does not reset the conspiracy -- and the registry still
        learns who the colluders are."""
        sim, faulty = build(level=2, faulty_count=18)
        lead(sim, 6)
        registry = sim.trust_snapshot()
        lying = [registry.get(n, 1.0) for n in faulty]
        honest = [
            ti for n, ti in registry.items() if n not in set(faulty)
        ]
        assert sum(lying) / len(lying) < sum(honest) / len(honest)

    def test_compromised_nodes_get_barred_from_leadership(self):
        """Once a liar's registry TI sinks below the LEACH threshold it
        stops winning elections in later rounds."""
        sim, faulty = build(level=0, faulty_count=20, seed=37,
                            events_per_leadership=8)
        lead(sim, 8)
        registry = sim.trust_snapshot()
        barred = {
            n for n in faulty if registry.get(n, 1.0) < 0.5
        }
        assert barred  # diagnosis happened
        # Rounds after the midpoint never elect a barred node.
        late_rounds = sim.rounds[len(sim.rounds) // 2:]
        late_leaders = {
            ch for record in late_rounds for ch in record.cluster_heads
        }
        # Allow the edge case of a node barred only after leading.
        assert len(late_leaders & barred) <= 2

    def test_metrics_report_compromise_ground_truth(self):
        sim, faulty = build(level=1)
        lead(sim, 3)
        assert sim.metrics().truly_faulty_nodes == tuple(sorted(faulty))


class TestCorruptClusterHeads:
    """§3.4 end to end inside the rotating network: a compromised node
    that wins an election inverts its verdicts, the shadow CHs dissent,
    the base station deposes it, and the corrected verdicts carry the
    system's accuracy."""

    def build_corrupt(self, seed=11):
        sim, faulty = build(
            level=0, faulty_count=15, seed=seed,
            corrupt_elected_faulty=True,
        )
        lead(sim, 6)
        return sim, faulty

    def test_exactly_the_watchable_corrupt_heads_are_deposed(self):
        """Deposition requires two dissenting shadows (§3.4's 2-of-3
        vote), so a corrupt head of a tiny cluster that could field at
        most one SCH escapes -- faithfully: 'only a single CH failure
        can be tolerated' presumes both shadows exist.  Every corrupt
        head with two shadows is deposed; no honest head ever is."""
        sim, _faulty = self.build_corrupt()
        deposed_hosts = {
            sim.bs._host_of_ch[r.ch_id] for r in sim.bs.resolutions
        }
        corrupt_hosts = set()
        watchable_corrupt = set()
        for record in sim.rounds:
            for host in record.corrupt_heads:
                corrupt_hosts.add(host)
                if len(record.shadows.get(host, ())) >= 2:
                    watchable_corrupt.add(host)
        assert deposed_hosts <= corrupt_hosts  # never a wrongful one
        assert watchable_corrupt <= deposed_hosts

    def test_honest_heads_are_never_deposed_without_corruption(self):
        sim, _faulty = build(
            level=0, faulty_count=15, seed=11,
            corrupt_elected_faulty=False,
        )
        lead(sim, 6)
        assert sim.bs.resolutions == []

    def test_bs_corrections_restore_system_accuracy(self):
        sim, _faulty = self.build_corrupt()
        if not sim.bs.resolutions:
            return  # no liar led this seed; nothing to correct
        # Raw CH verdicts (with inversions) vs corrected system output.
        from repro.experiments.metrics import score_run

        raw_outcomes, _ = score_run(
            sim.events,
            sim.all_decisions(),
            round_interval=sim.round_interval,
            r_error=sim.r_error,
        )
        raw_acc = sum(o.detected for o in raw_outcomes) / len(raw_outcomes)
        corrected_acc = sim.metrics().accuracy
        assert corrected_acc > raw_acc
        assert corrected_acc >= 0.9

    def test_deposed_hosts_lose_registry_trust(self):
        sim, _faulty = self.build_corrupt()
        registry = sim.trust_snapshot()
        for resolution in sim.bs.resolutions:
            host = sim.bs._host_of_ch[resolution.ch_id]
            assert registry.get(host, 1.0) < 1.0
