"""Unit tests for LEACH election with the trust-index admission gate."""

import numpy as np
import pytest

from repro.clusterctl.leach import (
    EnergyModel,
    LeachConfig,
    LeachElection,
)
from repro.network.geometry import Point, Region
from repro.network.topology import Deployment, grid_deployment


def make_election(n=25, ti_lookup=None, seed=1, config=None, energy=None):
    deployment = grid_deployment(n, Region.square(100.0))
    if config is None:
        config = LeachConfig(ch_fraction=0.2, ti_threshold=0.8)
    if energy is None:
        energy = EnergyModel(deployment.node_ids())
    return LeachElection(
        deployment=deployment,
        config=config,
        energy=energy,
        rng=np.random.default_rng(seed),
        ti_lookup=ti_lookup,
    )


class TestEnergyModel:
    def test_initial_energy_full(self):
        em = EnergyModel(range(3))
        assert em.fraction_remaining(0) == 1.0
        assert em.is_alive(0)

    def test_ch_duty_costs_more(self):
        em = EnergyModel(range(2), ch_round_cost=0.1, member_round_cost=0.01)
        em.charge_round({0})
        assert em.fraction_remaining(0) < em.fraction_remaining(1)

    def test_energy_floors_at_zero(self):
        em = EnergyModel(range(1), ch_round_cost=0.6)
        em.charge_round({0})
        em.charge_round({0})
        assert em.fraction_remaining(0) == 0.0
        assert not em.is_alive(0)

    def test_invalid_initial_energy_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(range(1), initial_energy=0.0)


class TestElectionRounds:
    def test_round_always_yields_a_cluster_head(self):
        election = make_election()
        for _ in range(10):
            result = election.run_round()
            assert len(result.cluster_heads) >= 1

    def test_every_alive_node_is_ch_or_member(self):
        election = make_election()
        result = election.run_round()
        covered = set(result.cluster_heads)
        for members in result.membership.values():
            covered.update(members)
        assert covered == set(range(25))

    def test_members_affiliate_with_nearest_ch(self):
        election = make_election()
        result = election.run_round()
        if len(result.cluster_heads) >= 2:
            deployment = election.deployment
            for ch, members in result.membership.items():
                for m in members:
                    d_own = deployment.position_of(m).distance_to(
                        deployment.position_of(ch)
                    )
                    for other in result.cluster_heads:
                        d_other = deployment.position_of(m).distance_to(
                            deployment.position_of(other)
                        )
                        assert d_own <= d_other + 1e-9

    @pytest.mark.parametrize("head_xs", [(10.0, 90.0), (90.0, 10.0)])
    def test_equidistant_member_joins_lower_id(self, head_xs):
        """Nodes 0 and 2 stand (scripted coin flips); node 1 sits
        exactly halfway between them and must join node 0, whichever
        side node 0 is on."""

        class ScriptedCoins:
            def __init__(self, draws):
                self._draws = iter(draws)

            def random(self):
                return next(self._draws)

        deployment = Deployment(region=Region.square(100.0))
        deployment.add(0, Point(head_xs[0], 50.0))
        deployment.add(1, Point(50.0, 50.0))
        deployment.add(2, Point(head_xs[1], 50.0))
        election = LeachElection(
            deployment=deployment,
            config=LeachConfig(ch_fraction=0.2, ti_threshold=0.8),
            energy=EnergyModel(deployment.node_ids()),
            rng=ScriptedCoins([0.0, 0.99, 0.0]),
        )
        result = election.run_round()
        assert result.cluster_heads == (0, 2)
        assert result.membership == {0: [1], 2: []}

    def test_recent_ch_sits_out_the_epoch(self):
        election = make_election()
        first = election.run_round()
        for ch in first.cluster_heads:
            assert election.threshold_for(ch) == 0.0

    def test_rotation_spreads_leadership(self):
        election = make_election(seed=3)
        leaders = set()
        for _ in range(30):
            leaders.update(election.run_round().cluster_heads)
        assert len(leaders) >= 10  # duty rotates across the cluster

    def test_round_numbers_increment(self):
        election = make_election()
        r0 = election.run_round()
        r1 = election.run_round()
        assert (r0.round_number, r1.round_number) == (0, 1)
        assert election.round_number == 2  # the next round's number


class TestTrustGate:
    def test_distrusted_candidates_are_vetoed(self):
        # Nodes 0-9 are distrusted; they must never be elected.
        ti = lambda n: 0.1 if n < 10 else 1.0
        election = make_election(ti_lookup=ti, seed=5)
        for _ in range(20):
            result = election.run_round()
            assert all(ch >= 10 for ch in result.cluster_heads)

    def test_vetoed_candidates_are_recorded(self):
        ti = lambda n: 0.0
        # All nodes distrusted: every coin-flip winner lands in vetoed,
        # and the draft fallback picks someone anyway.
        election = make_election(ti_lookup=ti, seed=5)
        saw_veto = False
        for _ in range(20):
            result = election.run_round()
            assert len(result.cluster_heads) == 1  # drafted
            saw_veto = saw_veto or bool(result.vetoed)
        assert saw_veto

    def test_draft_prefers_high_trust_and_energy(self):
        ti = lambda n: 1.0 if n == 7 else 0.0
        config = LeachConfig(ch_fraction=0.001, ti_threshold=0.8)
        election = make_election(ti_lookup=ti, config=config, seed=5)
        result = election.run_round()
        # With a negligible self-election probability the draft picks
        # the only trusted node.
        assert result.cluster_heads == (7,)


class TestEnergyIntegration:
    def test_depleted_nodes_never_stand(self):
        energy = EnergyModel(range(25))
        for _ in range(60):  # drain node 0 via CH duty
            energy.charge_round({0})
        election = make_election(energy=energy, seed=2)
        assert election.threshold_for(0) == 0.0

    def test_dead_nodes_excluded_from_clusters(self):
        energy = EnergyModel(range(25))
        for _ in range(300):
            energy.charge_round({3})
        assert not energy.is_alive(3)
        election = make_election(energy=energy, seed=2)
        result = election.run_round()
        covered = set(result.cluster_heads)
        for members in result.membership.values():
            covered.update(members)
        assert 3 not in covered


class TestConfigValidation:
    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            LeachConfig(ch_fraction=0.0)
        with pytest.raises(ValueError):
            LeachConfig(ch_fraction=1.0)
        with pytest.raises(ValueError):
            LeachConfig(ti_threshold=1.5)
        with pytest.raises(ValueError):
            LeachConfig(energy_floor=1.0)
