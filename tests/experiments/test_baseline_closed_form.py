"""The simulated Baseline against its closed form, eqs. 1-3 (§5).

Experiment 1's Baseline is the system Fig. 10 analyses: N = 10 event
neighbours vote by strict majority, a correct node reports an event
with p = 1 - NER, and a level-0 liar with q = 1 - drop_rate.  On a
lossless channel with no quiet windows each event is an independent
Bernoulli trial of ``baseline_success_probability(N, m, p, q)``, so the
detected count of a run is binomial.  The golden fixtures pin today's
bytes; this pins what those bytes must mean.  (Brass et al., 1311.3149,
analyse the same majority vote over unreliable sensors.)
"""

import math

import pytest

from repro.analysis.voting import baseline_success_probability
from repro.experiments.harness import SimulationRun
from repro.sensors.specs import CorrectSpec, FaultSpec

N = 10
DROP_RATE = 0.5
EVENTS = 300
NERS = (0.01, 0.05, 0.15)
LIARS = (0, 3, 5, 6, 8, 10)

#: Upper 0.1% point of chi-square with len(NERS) * len(LIARS) = 18
#: degrees of freedom: the pooled bound on the sum of squared z-scores.
CHI2_18_999 = 42.312


def simulated_detections(ner: float, m: int) -> int:
    """Events detected out of ``EVENTS`` by the Baseline with ``m`` liars."""
    run = SimulationRun(
        mode="binary",
        n_nodes=N,
        field_side=30.0,
        sensing_radius=100.0,  # every node neighbours every event
        use_trust=False,
        correct_spec=CorrectSpec(miss_rate=ner),
        fault_spec=FaultSpec(level=0, drop_rate=DROP_RATE),
        faulty_ids=range(m),
        channel_loss=0.0,
        quiet_windows=False,
        seed=1000 * m + round(1000 * ner),
    )
    run.run(EVENTS)
    metrics = run.metrics()
    assert metrics.events_total == EVENTS
    return metrics.events_detected


def z_score(detected: int, p: float) -> float:
    """Standardised distance of a binomial count from its mean."""
    return (detected - EVENTS * p) / math.sqrt(EVENTS * p * (1.0 - p))


@pytest.fixture(scope="module")
def z_scores():
    return {
        (ner, m): z_score(
            simulated_detections(ner, m),
            baseline_success_probability(N, m, 1.0 - ner, 1.0 - DROP_RATE),
        )
        for ner in NERS
        for m in LIARS
    }


@pytest.mark.parametrize("ner", NERS)
@pytest.mark.parametrize("m", LIARS)
def test_each_point_within_four_standard_errors(z_scores, ner, m):
    assert abs(z_scores[(ner, m)]) <= 4.0


def test_pooled_chi_square(z_scores):
    assert len(z_scores) == 18
    assert sum(z * z for z in z_scores.values()) <= CHI2_18_999
