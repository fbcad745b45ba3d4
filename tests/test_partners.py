import itertools

import numpy as np
import pytest

from repeated_games.core import ContractViolation, History, coordination_game, example1_game
from repeated_games.learners import ExpertSet, ExploreThenCommit, FixedAction, StrategicExperts
from repeated_games.metrics import estimate_commit_time
from repeated_games.partners import (
    FictitiousPlayPartner,
    GammaEstimateParams,
    GrimTrigger,
    GrimTriggerSpec,
    OracleParams,
    PredictiveExploiter,
    RandomChoiceStrategy,
    StationaryPartner,
    SwitchingPartner,
    SwitchingSpec,
    UniformPartner,
    _smallest_sigma,
    predict_deviation_horizon,
    theorem1_adversary,
)

GRIM = GrimTriggerSpec(expected_alice_action=0, cooperate_action=0,
                       punish_action=2, n_bob_actions=3)


def test_grim_absorption_full_enumeration():
    """Over every Alice sequence of length <= 6: triggered iff a deviation
    occurred, the punish state is absorbing, and actions match the state."""
    for length in range(7):
        for seq in itertools.product((0, 1), repeat=length):
            phi = GrimTrigger(GRIM)
            triggered = False
            for a in seq:
                b = phi.decide()
                assert b == (2 if triggered else 0)
                phi.observe(a, b)
                triggered = triggered or (a != 0)
            assert phi._triggered == triggered
            assert phi.decide() == (2 if triggered else 0)


def test_grim_probs_are_point_masses():
    phi = GrimTrigger(GRIM)
    assert phi.probs().tolist() == [1.0, 0.0, 0.0]
    phi.observe(1, 0)
    assert phi.probs().tolist() == [0.0, 0.0, 1.0]


def test_grim_reset():
    phi = GrimTrigger(GRIM)
    phi.observe(1, 0)
    assert phi._triggered
    phi.reset()
    assert not phi._triggered and phi.decide() == 0


def test_uniform_partner_distribution():
    phi = UniformPartner(3, seed=5)
    draws = np.array([phi.decide() for _ in range(6000)])
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.allclose(freq, 1 / 3, atol=0.03)
    assert phi.probs().tolist() == [1 / 3] * 3


def test_stationary_partner_matches_probs():
    phi = StationaryPartner([0.7, 0.2, 0.1], seed=4)
    draws = np.array([phi.decide() for _ in range(8000)])
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.allclose(freq, [0.7, 0.2, 0.1], atol=0.03)


def test_switching_partner_mirrors_target_after_tau():
    spec = SwitchingSpec(tau=5, target_action=1, n_actions=3)
    phi = SwitchingPartner(spec, seed=2)
    for n in range(20):
        b = phi.decide()
        if n >= 5:
            assert b == 1  # last Alice action was always the target
        phi.observe(1, b)
    # a non-target last action sends it back to uniform sampling
    phi.observe(0, phi.decide())
    assert phi.probs().tolist() == [1 / 3] * 3


def test_switching_partner_tau_zero_mirrors_immediately():
    phi = SwitchingPartner(SwitchingSpec(0, 2, 3), seed=1)
    phi.decide()  # empty history: no last action to mirror yet
    phi.observe(2, 0)
    assert phi.decide() == 2


def test_fictitious_play_best_responds_to_empirical_counts():
    g = example1_game()
    fp = FictitiousPlayPartner(g)
    assert fp.decide() == 0  # empty history: lowest index
    fp.observe(1, 0)
    assert fp.decide() == 1  # best response to a^2 is b^2
    fp.observe(0, 1)
    # counts now tied 1-1: scores are G(a1,b)+G(a2,b) = (2,2,2); lowest index
    assert fp.decide() == 0


def test_fictitious_play_is_deterministic_and_resettable():
    g = coordination_game(3)
    fp = FictitiousPlayPartner(g)
    assert fp.deterministic
    fp.observe(2, 0)
    assert fp.decide() == 2
    fp.reset()
    assert fp.decide() == 0


def test_random_choice_strategy_seeded_choice():
    subs = lambda: [FixedAction(0, 2), FixedAction(1, 2)]  # noqa: E731
    picks = {RandomChoiceStrategy(subs(), None, seed).decide() for seed in range(20)}
    assert picks == {0, 1}
    phi1 = RandomChoiceStrategy(subs(), None, 7)
    phi2 = RandomChoiceStrategy(subs(), None, 7)
    assert phi1.decide() == phi2.decide()


def test_random_choice_respects_weights():
    draws = []
    for seed in range(400):
        phi = RandomChoiceStrategy([FixedAction(0, 2), FixedAction(1, 2)], [0.9, 0.1], seed)
        draws.append(phi.decide())
    assert 0.03 < np.mean(draws) < 0.2


def test_smallest_sigma_drops_converged_continuations():
    # half the continuations never switch within the cap: excluded
    times = [3, 4, 5, 200, 200]
    sigma, capped = _smallest_sigma(times, delta_i=0.05, sigma_cap=200)
    assert not capped
    assert sigma >= 6  # beyond the empirical non-converged range
    sigma_all, capped_all = _smallest_sigma([200, 200], delta_i=0.05, sigma_cap=200)
    assert sigma_all == 200 and not capped_all


def test_smallest_sigma_caps_out():
    sigma, capped = _smallest_sigma([150, 180], delta_i=1e-9, sigma_cap=200)
    assert capped and sigma == 200


def test_predict_deviation_horizon_validates_args():
    g = coordination_game(3)
    factory = lambda s=None: FixedAction(0, 3, s)  # noqa: E731
    with pytest.raises(ValueError):
        predict_deviation_horizon(factory, History(), g, 0.5, oracle_trials=0, sigma_cap=10)
    with pytest.raises(ValueError):
        predict_deviation_horizon(factory, History(), g, 1.5, oracle_trials=4, sigma_cap=10)


def test_exploiter_delta_schedule_sums_below_delta():
    g = coordination_game(3)
    experts = ExpertSet.fixed_actions(3)
    factory = lambda s=None: StrategicExperts(g, experts, 0.2, None, s)  # noqa: E731
    ex = PredictiveExploiter(factory, g, 0.05, OracleParams(trials=16, sigma_cap=200), 3)
    learner = factory(11)
    for _ in range(800):
        a, b = learner.decide(), ex.decide()
        learner.observe(a, b)
        ex.observe(a, b)
    deltas = [rec["delta_i"] for rec in ex.audit_log]
    assert len(deltas) >= 2
    assert sum(deltas) <= 0.05
    for i, d in enumerate(deltas):
        assert d == 0.05 / 2.0 ** (i + 1)


def test_exploiter_mirrors_committed_action_after_sigma():
    g = coordination_game(3)
    experts = ExpertSet.fixed_actions(3)
    factory = lambda s=None: StrategicExperts(g, experts, 0.2, None, s)  # noqa: E731
    ex = PredictiveExploiter(factory, g, 0.05, OracleParams(trials=16, sigma_cap=400), 9)
    seen_mirror = False
    for _ in range(400):
        b = ex.decide()
        ex.observe(1, b)
        seen_mirror = seen_mirror or b == 1
    rec0 = ex.audit_log[0]
    assert not rec0["capped"]
    assert ex.decide() == 1  # well past sigma_0, Alice committed to action 1
    assert seen_mirror


def test_theorem1_adversary_switching_branch_against_etc():
    g = coordination_game(5)
    experts = ExpertSet.fixed_actions(5)

    def learner(s=None):
        return ExploreThenCommit(g, experts, 250, s)

    params = GammaEstimateParams(trials=100, horizon=1200, seed=0)
    strategy, info = theorem1_adversary(learner, g, experts.actions, 0.1, params)
    assert info["branch"] == "switching"
    assert info["gamma_hat"] == 0.0
    assert info["tau"] == 251
    commit = estimate_commit_time(g, learner, lambda s=None: UniformPartner(5, s), 0.1,
                                  trials=100, horizon=1200, seed=0)
    assert commit.tau == info["tau"]
    assert info["p_e"] == pytest.approx([0.26, 0.18, 0.21, 0.16, 0.19], abs=1e-12)
    assert info["target"] == 3
    assert isinstance(strategy, SwitchingPartner)
    built = info["factory"](7)
    assert isinstance(built, SwitchingPartner)
    assert built.spec == SwitchingSpec(251, 3, 5)


def test_theorem1_adversary_rejects_out_of_range_action():
    g = coordination_game(5)
    with pytest.raises(ContractViolation):
        theorem1_adversary(lambda s=None: FixedAction(9, 10, s), g, range(5), 0.1,
                           GammaEstimateParams(trials=5, horizon=20))
