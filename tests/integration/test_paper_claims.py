"""The paper's four §1 contributions, each as an executable claim.

These tests intentionally read like the contribution list; the heavy
lifting lives in the focused suites, and each test here is a compact
end-to-end witness.
"""

import numpy as np

from repro.clusterctl.head import ClusterHead
from repro.core.trust import TrustParameters
from repro.experiments.harness import SimulationRun
from repro.sensors.specs import CorrectSpec, FaultSpec
from repro.service.session import SessionConfig


class TestContribution1:
    """"TIBFIT tolerates nodes that fail both naturally and
    maliciously, and makes decisions on event occurrence as well as
    location.  Under several scenarios, accurate event determination
    and localization can be done even with more than 50% of the
    network compromised.  We also demonstrate diagnosis and limited
    recovery." """

    def test_beyond_half_compromised_with_diagnosis(self):
        rng = np.random.default_rng(61)
        faulty = tuple(
            int(x) for x in rng.choice(100, size=55, replace=False)
        )
        run = SimulationRun(
            mode="location",
            n_nodes=100,
            field_side=100.0,
            sensing_radius=20.0,
            r_error=5.0,
            lam=0.25,
            fault_rate=0.1,
            correct_spec=CorrectSpec(sigma=1.6),   # natural noise
            fault_spec=FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
            faulty_ids=faulty,                     # malicious majority
            diagnosis_threshold=0.2,
            channel_loss=0.008,
            seed=61,
        )
        run.run(100)
        metrics = run.metrics()
        # Occurrence AND location decided, beyond 50% compromised.
        assert metrics.accuracy >= 0.6
        assert metrics.mean_localisation_error < 5.0
        # Diagnosis names real liars far more often than honest nodes.
        assert metrics.diagnosis_recall >= 0.4
        assert metrics.diagnosis_false_positives <= 3


class TestContribution2:
    """"No nodes are considered immune to failure, whether they are
    sensing nodes or the data sink." """

    def test_the_data_sink_itself_is_a_failure_domain(self):
        # The CH is an addressable, killable node like any other; the
        # §3.4 machinery (shadow CHs + BS voting) exists precisely
        # because of that, and is exercised in
        # tests/clusterctl/test_shadow.py and examples/ch_failover.py.
        from repro.network.geometry import Point
        from repro.network.topology import Deployment, Region

        deployment = Deployment(region=Region.square(10.0))
        ch = ClusterHead(
            node_id=1,
            position=Point(5.0, 5.0),
            deployment=deployment,
            config=SessionConfig(mode="binary", trust=TrustParameters()),
        )
        assert ch.alive
        ch.kill()
        assert not ch.alive  # same lifecycle as every sensor


class TestContribution3:
    """"We have come up with an adversary model with increasing levels
    of sophistication and demonstrate the effectiveness of the
    protocol in each case." """

    def test_damage_orders_with_sophistication_under_tibfit(self):
        def accuracy(level):
            rng = np.random.default_rng(67)
            faulty = tuple(
                int(x) for x in rng.choice(100, size=50, replace=False)
            )
            run = SimulationRun(
                mode="location",
                n_nodes=100,
                field_side=100.0,
                sensing_radius=20.0,
                r_error=5.0,
                lam=0.25,
                fault_rate=0.1,
                correct_spec=CorrectSpec(sigma=1.6),
                fault_spec=FaultSpec(
                    level=level, drop_rate=0.25, sigma=4.25
                ),
                faulty_ids=faulty,
                channel_loss=0.0,
                seed=67,
            )
            run.run(80)
            return run.metrics().accuracy

        level0, level1, level2 = (accuracy(l) for l in (0, 1, 2))
        # Level 1's self-throttling makes it WEAKER than naive level 0
        # against TIBFIT (the §4.2 finding), while colluding level 2 is
        # the strongest attack of the three.
        assert level1 >= level0
        assert level2 <= level0
        # The protocol remains effective (above coin-flip) in each case.
        assert min(level0, level1, level2) > 0.5


class TestContribution4:
    """"The protocol is generic and can be applied to any data sensing
    and aggregation application in sensor networks." """

    def test_same_engine_drives_binary_and_location_applications(self):
        # One public API, two application shapes (plus tracking in
        # examples/target_tracking.py).
        binary = SimulationRun(
            mode="binary",
            n_nodes=10,
            field_side=30.0,
            sensing_radius=100.0,
            lam=0.1,
            fault_rate=0.01,
            fault_spec=FaultSpec(level=0, drop_rate=0.5),
            faulty_ids=(0, 1, 2),
            channel_loss=0.0,
            seed=71,
        )
        binary.run(20)
        location = SimulationRun(
            mode="location",
            n_nodes=25,
            field_side=50.0,
            sensing_radius=20.0,
            r_error=5.0,
            correct_spec=CorrectSpec(sigma=1.0),
            faulty_ids=(),
            channel_loss=0.0,
            seed=71,
        )
        location.run(20)
        assert binary.metrics().accuracy == 1.0
        assert location.metrics().accuracy == 1.0
        # The location pipeline produced located decisions; the binary
        # pipeline produced occurrence-only ones.
        assert all(
            d.location is None for d in binary.ch.decisions
        )
        assert any(
            d.location is not None for d in location.ch.decisions
        )
