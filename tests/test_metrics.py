from fractions import Fraction

import numpy as np
import pytest

from repeated_games.core import ContractViolation, History, coordination_game, example1_game
from repeated_games.learners import ExpertSet, ExploreThenCommit, FixedAction
from repeated_games.metrics import (
    EstimatorParams,
    adaptive_regret,
    bound_table,
    check_flexibility,
    check_open_ended,
    estimate_commit_time,
    estimate_value,
    external_regret,
    open_ended_regret,
    sample_histories,
)
from repeated_games.partners import (
    GrimTrigger,
    GrimTriggerSpec,
    StationaryPartner,
    SwitchingPartner,
    SwitchingSpec,
    UniformPartner,
)


def _grim1(seed=None):
    return GrimTrigger(GrimTriggerSpec(0, 0, 2, 3), seed)


def _fixed(a, n):
    return lambda seed=None: FixedAction(a, n, seed)


def test_estimate_value_deterministic_pair_is_exact():
    g = example1_game()
    est = estimate_value(g, _fixed(0, 2), _grim1, None,
                         EstimatorParams(trials=2, horizon=1000, seed=0))
    assert est.mean == 2.0 and est.tail_mean == 2.0
    assert est.ci_half_width == 0.0
    assert est.liminf_proxy == 2.0


def test_estimate_value_conditioning_on_poisoned_history():
    g = example1_game()
    h = History([(1, 0)])  # deviation: the trigger is already pulled
    est = estimate_value(g, _fixed(0, 2), _grim1, h,
                         EstimatorParams(trials=1, horizon=1000, seed=0))
    assert est.tail_mean == 1.0


def test_estimate_value_parallelism_equivalence():
    g = coordination_game(3)

    def unif(seed=None):
        return UniformPartner(3, seed)

    p1 = EstimatorParams(trials=40, horizon=500, seed=3, parallelism=1)
    p8 = EstimatorParams(trials=40, horizon=500, seed=3, parallelism=8)
    e1 = estimate_value(g, unif, unif, None, p1)
    e8 = estimate_value(g, unif, unif, None, p8)
    assert e1.mean == e8.mean and e1.tail_mean == e8.tail_mean
    assert e1.ci_half_width == e8.ci_half_width


def test_ci_shrinks_with_trials():
    g = coordination_game(3)

    def unif(seed=None):
        return UniformPartner(3, seed)

    small = estimate_value(g, unif, unif, None, EstimatorParams(trials=100, horizon=200, seed=1))
    big = estimate_value(g, unif, unif, None, EstimatorParams(trials=400, horizon=200, seed=1))
    ratio = small.ci_half_width / big.ci_half_width
    assert 1.5 < ratio < 2.7  # ~2x from 4x the trials


def test_adaptive_regret_grim_example():
    g = example1_game()
    params = EstimatorParams(trials=50, horizon=2000, seed=5, expert_trials=2)
    reg = adaptive_regret(g, _fixed(1, 2), _grim1, (0, 1), params)
    # fixed a2 poisons the trigger: learner earns 1, best expert (a1) earns 2
    assert reg.per_expert[0].tail_mean == 2.0
    assert reg.per_expert[1].tail_mean == 1.0
    assert reg.best_expert == 0
    assert reg.regret == 1.0


def test_external_regret_counterfactual_is_static():
    g = example1_game()
    from repeated_games.core import rollout

    trajs = [rollout(g, FixedAction(1, 2), _grim1(), 500, seed=s) for s in range(3)]
    r = external_regret(trajs, g, (0, 1))
    # on the logged (triggered) action stream, no fixed row beats a2's payoff 1:
    # a1 earns 2 only in stage 0, then 1 against the punish column
    assert r == pytest.approx((2 - 0) / 500)


def test_open_ended_regret_depth_zero_matches_adaptive():
    g = coordination_game(3)
    spec = SwitchingSpec(30, 0, 3)

    def switching(seed=None):
        return SwitchingPartner(spec, seed)

    params = EstimatorParams(trials=60, horizon=1500, seed=7, expert_trials=12)
    ar = adaptive_regret(g, _fixed(1, 3), switching, (0, 1, 2), params)
    oe = open_ended_regret(g, _fixed(1, 3), switching, (0, 1, 2), prefix_depth=0,
                           params=params, prefix_samples=4)
    assert abs(oe.regret - ar.regret) <= 3 * (ar.ci_half_width + oe.ci_half_width) + 0.02


def test_open_ended_regret_grim_is_minus_one():
    g = example1_game()
    oe = open_ended_regret(g, _fixed(0, 2), _grim1, (0, 1), prefix_depth=1,
                           params=EstimatorParams(trials=1, horizon=2000, seed=0))
    assert oe.regret == -1.0
    assert oe.per_expert_inf == {0: 1.0, 1: 1.0}
    assert not oe.partial


def test_check_open_ended_uniform_passes_grim_fails():
    g = example1_game()

    def unif(seed=None):
        return UniformPartner(3, seed)

    params = EstimatorParams(trials=40, horizon=1500, seed=3)
    assert check_open_ended(g, unif, (0, 1), params=params).passed
    rep = check_open_ended(g, _grim1, (0, 1), params=params)
    assert not rep.passed
    assert rep.violations  # carries witness histories


def test_check_flexibility_stationary_passes():
    g = example1_game()

    def phi(seed=None):
        return StationaryPartner([0.3, 0.4, 0.3], seed)

    rep = check_flexibility(g, phi, (0, 1), c=2.0, r=0.5,
                            params=EstimatorParams(trials=50, horizon=1500, seed=9))
    assert rep.passed


def test_check_flexibility_warns_on_small_exponent():
    g = example1_game()

    def unif(seed=None):
        return UniformPartner(3, seed)

    with pytest.warns(UserWarning):
        check_flexibility(g, unif, (0,), c=2.0, r=0.2,
                          history_sampler=[History()], s_grid=(8,),
                          params=EstimatorParams(trials=5, horizon=200, seed=0))


def test_sample_histories_shapes():
    g = example1_game()

    def unif(seed=None):
        return UniformPartner(3, seed)

    hs = sample_histories(g, unif, count=15, max_len=20, seed=2)
    assert len(hs) == 15
    assert len(hs[0]) == 0  # always includes the empty history
    assert all(len(h) <= 20 for h in hs)
    # pure-commitment prefixes for every row are present
    for e in range(g.rows):
        assert any(len(h) > 0 and all(a == e for a, _ in h.pairs()) for h in hs)


def test_estimate_commit_time_etc():
    g = coordination_game(3)

    def learner(seed=None):
        return ExploreThenCommit(g, ExpertSet.fixed_actions(3), 90, seed)

    def unif(seed=None):
        return UniformPartner(3, seed)

    est = estimate_commit_time(g, learner, unif, delta=0.05, trials=100,
                               horizon=400, seed=1)
    assert not est.degenerate
    assert est.gamma_hat == 0.0
    assert 60 < est.tau <= 91  # last switch is at the commit stage or earlier


def test_bound_table_exact_fractions():
    t = bound_table(5, 0.1)
    assert t.gamma_star == Fraction(1, 3)
    assert t.theorem1_bound == Fraction(1, 8)
    # gamma defaults to gamma_star = 1/3, so the passive bound is 1/2 - 1/3
    assert t.gamma == Fraction(1, 3)
    assert t.passive_bound == Fraction(1, 6)
    t2 = bound_table(3, 0.2)
    assert t2.theorem1_bound == Fraction(2, 225)
    assert float(t2.theorem1_bound) == pytest.approx(0.00888888, abs=1e-6)


def test_bound_table_with_gamma():
    t = bound_table(5, 0.1, gamma=0.25)
    assert t.passive_bound == Fraction(1, 2) - Fraction(1, 4)
    assert t.active_bound == Fraction(1, 4) * (Fraction(4, 5) - Fraction(1, 10))


def test_bound_table_validation():
    with pytest.raises(ValueError):
        bound_table(2, 0.1)
    with pytest.raises(ValueError):
        bound_table(5, 0.7)  # delta >= (N-2)/N
    with pytest.raises(ValueError):
        bound_table(5, 0.0)


def test_estimate_commit_time_rejects_out_of_range_action():
    g = coordination_game(5)
    with pytest.raises(ContractViolation):
        estimate_commit_time(g, lambda s=None: FixedAction(9, 10, s),
                             lambda s=None: UniformPartner(5, s), delta=0.1,
                             trials=5, horizon=20)
