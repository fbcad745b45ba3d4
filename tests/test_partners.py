import itertools

import numpy as np
import pytest

from repeated_games.core import (
    ContractViolation,
    Game,
    coordination_game,
    derive_trial_seed,
    example1_game,
    simulate_payoffs,
)
from repeated_games.learners import (
    ExpertSet,
    ExploreThenCommit,
    FixedAction,
    MixedLearner,
    PeriodicSwitcher,
    RandomChoiceStrategy,
    StrategicExperts,
)
from repeated_games.metrics import estimate_commit_time
from repeated_games.partners import (
    FictitiousPlayPartner,
    GammaEstimateParams,
    GrimTrigger,
    GrimTriggerSpec,
    OracleParams,
    PredictiveExploiter,
    StationaryPartner,
    SwitchingPartner,
    SwitchingSpec,
    UniformPartner,
    _BlockInts,
    _smallest_sigma,
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


def test_grim_reset():
    # the library restarts a strategy by building a fresh instance
    phi = GrimTrigger(GRIM)
    phi.observe(1, 0)
    assert phi._triggered
    phi = GrimTrigger(GRIM)
    assert not phi._triggered and phi.decide() == 0


def test_uniform_partner_distribution():
    phi = UniformPartner(3, seed=5)
    draws = np.array([phi.decide() for _ in range(6000)])
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.allclose(freq, 1 / 3, atol=0.03)


def test_block_ints_take_equals_single_draws():
    seed, n = 3, 5
    for offset in (0, 1, 300, 511, 512, 513):
        ref = _BlockInts(np.random.default_rng(seed), n)
        calls = [ref() for _ in range(offset + 1500 + 513)]
        for k in range(1501):
            draw = _BlockInts(np.random.default_rng(seed), n)
            for _ in range(offset):
                draw()
            got = draw.take(k)
            assert got.dtype == np.int64 and got.tolist() == calls[offset:offset + k]
            # the stream continues where k calls would have left it
            assert [draw() for _ in range(513)] == calls[offset + k:offset + k + 513]
    # takes in a row, and calls between them
    draw = _BlockInts(np.random.default_rng(seed), n)
    got = []
    for k in (0, 7, 600, 0, 1, 1024, 3):
        got += draw.take(k).tolist()
        got.append(draw())
    assert got == calls[:len(got)]


def test_stationary_partner_matches_probs():
    phi = StationaryPartner([0.7, 0.2, 0.1], seed=4)
    draws = np.array([phi.decide() for _ in range(8000)])
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.allclose(freq, [0.7, 0.2, 0.1], atol=0.03)


def test_stationary_partner_rejects_bad_probabilities():
    nan, inf = float("nan"), float("inf")
    for probs in ([], [-1, 1, 1], [0.5, nan, 0.5], [0, 0, 0], [1, inf, 0], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="stationary probabilities"):
            StationaryPartner(probs, seed=0)
    # weights need not sum to 1: they are normalised
    assert StationaryPartner([0, 2, 0], seed=0).decide() == 1


def test_switching_partner_mirrors_target_after_tau():
    spec = SwitchingSpec(tau=5, target_action=1, n_actions=3)
    phi = SwitchingPartner(spec, seed=2)
    for n in range(20):
        b = phi.decide()
        if n >= 5:
            assert b == 1  # last Alice action was always the target
        phi.observe(1, b)
    # a non-target last action sends it back to uniform sampling: from the
    # next stage on it plays its stream's uniform draws, past the five drawn
    # at stages 0-4
    phi.observe(0, phi.decide())
    draws = []
    for _ in range(60):
        draws.append(phi.decide())
        phi.observe(0, draws[-1])
    uniform = _BlockInts(np.random.default_rng(2), 3)
    assert draws == [uniform() for _ in range(65)][5:]


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
    assert FictitiousPlayPartner(g).decide() == 0


def test_fictitious_play_bulk_sums_match_observe_on_fine_payoffs():
    # entries 0.1 / 0.2 / 0.3 make scores tie and round as they are summed:
    # respond and observe_many must add in observe's order to agree with it
    rng = np.random.default_rng(0)
    for case in range(500):
        cols = int(rng.integers(2, 5))
        game = Game(3, cols, rng.choice([0.1, 0.2, 0.3], size=(3, cols)), (0.0, 1.0))
        bulk, stepped = FictitiousPlayPartner(game), FictitiousPlayPartner(game)
        for a in rng.integers(0, 3, int(rng.integers(0, 20))).tolist():
            bulk.observe(a, 0)
            stepped.observe(a, 0)
        a, n = int(rng.integers(0, 3)), int(rng.integers(0, 80))
        bs = []
        for _ in range(n):
            bs.append(stepped.decide())
            stepped.observe(a, bs[-1])
        assert bulk.respond(a, n).tolist() == bs, case
        bulk.observe_many([a] * n, bs)
        assert (bulk._scores, bulk._current) == (stepped._scores, stepped._current), case


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


def test_random_choice_rejects_bad_members_and_probs():
    two = lambda: [FixedAction(0, 2), FixedAction(1, 2)]  # noqa: E731
    with pytest.raises(ValueError, match="at least one member"):
        RandomChoiceStrategy([], None, 0)
    with pytest.raises(ValueError, match="2 members but 3 probabilities"):
        RandomChoiceStrategy(two(), [0.5, 0.25, 0.25], 0)
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        RandomChoiceStrategy(two(), [1.5, -0.5], 0)
    with pytest.raises(ValueError, match="sum to 1"):
        RandomChoiceStrategy(two(), [0.5, 0.4], 0)


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


def test_oracle_params_reject_empty_budgets():
    with pytest.raises(ValueError, match="trials"):
        OracleParams(trials=0, sigma_cap=50)
    with pytest.raises(ValueError, match="sigma_cap"):
        OracleParams(trials=4, sigma_cap=0)
    assert OracleParams(trials=1, sigma_cap=1).trials == 1


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


class _EagerExploiter(PredictiveExploiter):
    """Reference oracle: feeds every pool member every stage, continues a
    clone of every member (index ``j`` from ``enumerate``) and simulates
    every continuation stage by stage, absorbed or not."""

    def __init__(self, *args):
        super().__init__(*args)
        self._members = [m for _, m in self._pool]
        self._pool = []  # the base class records no pending stages

    def observe(self, a, b):
        for m in self._members:
            m.observe(a, b)
        super().observe(a, b)

    def _open_interval(self):
        st, oracle = self._state, self.oracle
        i = st.interval_index
        delta_i = self.delta / 2.0 ** (i + 1)
        interval_seed = derive_trial_seed(oracle.seed, i, "interval")
        times = []
        for j, m in enumerate(self._members):
            learner = m.clone(derive_trial_seed(oracle.seed, i * 100003 + j, "continuation"))
            partner = UniformPartner(
                self.game.cols, derive_trial_seed(interval_seed, j, "oracle-partner"))
            ref, t = self._last_alice, 0
            while t < oracle.sigma_cap:
                a = learner.decide()
                ref = a if ref is None else ref
                if a != ref:
                    break
                b = partner.decide()
                learner.observe(a, b)
                partner.observe(a, b)
                t += 1
            times.append(t)
        self._steps_spent += sum(times)
        st.sigma, st.capped = _smallest_sigma(times, delta_i, oracle.sigma_cap)
        st.delta_i = delta_i
        self.audit_log.append({"interval": i, "s_i": st.interval_start_stage,
                               "sigma_i": st.sigma, "delta_i": delta_i, "capped": st.capped})
        self._sigma_ready = True


def test_exploiter_matches_the_eager_reference_oracle():
    g = coordination_game(3)
    experts = ExpertSet.fixed_actions(3)

    def mixed(s=None):
        return MixedLearner(ExploreThenCommit(g, experts, 9, derive_trial_seed(s, 0, "p")),
                            StrategicExperts(g, experts, 0.3, None, derive_trial_seed(s, 1, "a")),
                            0.5, s)

    def half_fixed(s=None):
        # absorbed from the start for odd seeds, so interval 0 (no reference
        # action yet) scores absorbed members too
        return FixedAction(s % 3, 3, s) if s % 2 else mixed(s)

    settled = 0
    for pool in (mixed, half_fixed):
        for learner in (lambda s: FixedAction(1, 3, s), mixed):
            for seed in range(4):
                oracle = OracleParams(trials=10, sigma_cap=80, seed=seed)
                ex = PredictiveExploiter(pool, g, 0.1, oracle, 50 + seed)
                ref = _EagerExploiter(pool, g, 0.1, oracle, 50 + seed)
                for phi in (ex, ref):
                    simulate_payoffs(g, learner(70 + seed), phi, 300)
                assert ex.audit_log == ref.audit_log
                assert ex.audit_log[0]["interval"] == 0
                assert ex._steps_spent == ref._steps_spent
                settled += bool(ex._settled)
    assert settled > 0  # the absorbed shortcut ran


def test_theorem1_adversary_switching_branch_against_etc():
    g = coordination_game(5)
    experts = ExpertSet.fixed_actions(5)

    def learner(s=None):
        return ExploreThenCommit(g, experts, 250, s)

    params = GammaEstimateParams(trials=100, horizon=1200, seed=0)
    strategy, info = theorem1_adversary(learner, g, 0.1, params)
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


def test_theorem1_adversary_takes_tail_window_zero_literally():
    g = coordination_game(4)

    def learner(s=None):
        return PeriodicSwitcher(4, 7, s)

    params = GammaEstimateParams(trials=20, horizon=100, tail_window=0, seed=0)
    _, info = theorem1_adversary(learner, g, 0.1, params)
    commit = estimate_commit_time(g, learner, lambda s=None: UniformPartner(4, s), 0.1,
                                  trials=20, horizon=100, tail_window=0, seed=0)
    # an empty tail window holds no switch, so every trial counts as converged
    assert info["gamma_hat"] == commit.gamma_hat == 0.0
    assert info["tau"] == commit.tau == 99


def test_theorem1_adversary_rejects_out_of_range_action():
    g = coordination_game(5)
    with pytest.raises(ContractViolation):
        theorem1_adversary(lambda s=None: FixedAction(9, 10, s), g, 0.1,
                           GammaEstimateParams(trials=5, horizon=20))
