"""Property-based tests for the chaos layer.

Two families of properties:

* **Safety** -- whatever fault plan is applied, a completed run never
  violates the runtime invariants (TI range, code-table consistency,
  clock monotonicity, decision ordering, diagnosis soundness).
* **Determinism** -- any ``(plan, seed)`` pair replays bit-identically:
  run-to-run in one process, and serial vs. a two-worker campaign pool.

Simulations are kept tiny (6-8 nodes, a handful of rounds) so the suite
stays inside the tier-1 budget; the seeded ``FaultPlan.random``
generator explores the plan space instead of a hand-rolled strategy,
which also keeps every generated plan serialisable by construction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import (
    CampaignConfig,
    run_campaign,
    run_campaign_point,
)
from repro.chaos.invariants import InvariantChecker, run_fingerprint
from repro.chaos.plan import FaultPlan, builtin_plans
from repro.experiments.harness import SimulationRun

N_NODES = 6
N_ROUNDS = 6
HORIZON = (N_ROUNDS + 1) * 10.0


def make_run(plan, seed):
    return SimulationRun(
        mode="binary",
        n_nodes=N_NODES,
        field_side=30.0,
        sensing_radius=100.0,
        faulty_ids=(0,),
        diagnosis_threshold=0.3,
        seed=seed,
        chaos_plan=plan,
    )


plan_seeds = st.integers(min_value=0, max_value=10_000)
run_seeds = st.integers(min_value=0, max_value=10_000)


@given(plan_seed=plan_seeds, run_seed=run_seeds)
@settings(max_examples=15, deadline=None)
def test_arbitrary_plans_never_violate_invariants(plan_seed, run_seed):
    plan = FaultPlan.random(
        seed=plan_seed, n_nodes=N_NODES, horizon=HORIZON
    )
    run = make_run(plan, run_seed).run(N_ROUNDS)
    assert InvariantChecker().check_run(run) == []


@given(plan_seed=plan_seeds, run_seed=run_seeds)
@settings(max_examples=10, deadline=None)
def test_same_plan_and_seed_replay_identically(plan_seed, run_seed):
    plan = FaultPlan.random(
        seed=plan_seed, n_nodes=N_NODES, horizon=HORIZON
    )
    first = run_fingerprint(make_run(plan, run_seed).run(N_ROUNDS))
    second = run_fingerprint(make_run(plan, run_seed).run(N_ROUNDS))
    assert first == second


@given(plan_seed=plan_seeds, run_seed=run_seeds)
@settings(max_examples=10, deadline=None)
def test_plan_survives_serialisation_with_identical_behaviour(
    plan_seed, run_seed
):
    plan = FaultPlan.random(
        seed=plan_seed, n_nodes=N_NODES, horizon=HORIZON
    )
    reloaded = FaultPlan.from_json(plan.to_json())
    direct = make_run(plan, run_seed).run(N_ROUNDS)
    via_json = make_run(reloaded, run_seed).run(N_ROUNDS)
    assert run_fingerprint(direct) == run_fingerprint(via_json)


def test_every_builtin_plan_passes_invariants():
    config = CampaignConfig(
        n_nodes=N_NODES, n_rounds=N_ROUNDS, diagnosis_threshold=0.3
    )
    for plan in builtin_plans(config.horizon, config.n_nodes).values():
        result = run_campaign_point(config, plan, seed=0)
        assert result.ok, result.violations


def test_campaign_is_bit_identical_serial_vs_two_workers():
    """The replay contract at the campaign level: the same grid at
    workers=2 equals the serial run, result-for-result including
    fingerprints."""
    config = CampaignConfig(n_nodes=N_NODES, n_rounds=N_ROUNDS)
    plans = [
        FaultPlan.random(seed=3, n_nodes=N_NODES, horizon=config.horizon),
        FaultPlan.random(seed=4, n_nodes=N_NODES, horizon=config.horizon),
    ]
    serial = run_campaign(plans, [0, 1], config, workers=1)
    parallel = run_campaign(plans, [0, 1], config, workers=2)
    assert serial == parallel
