import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategy_zoo import EXPERTS, GAME, N, ZOO, fresh

from repeated_games.core import (
    _POLL_BLOCK,
    ContractViolation,
    Game,
    History,
    commit_stats,
    coordination_game,
    derive_trial_seed,
    example1_game,
    rollout,
    simulate_payoffs,
)
from repeated_games.learners import (
    ExpertSet,
    ExploreThenCommit,
    FixedAction,
    MixedLearner,
    PeriodicSwitcher,
    StrategicExperts,
)
from repeated_games.partners import (
    GrimTrigger,
    GrimTriggerSpec,
    SwitchingPartner,
    SwitchingSpec,
    UniformPartner,
)


def test_example1_game_payoffs():
    g = example1_game()
    assert g.rows == 2 and g.cols == 3
    assert g.payoff.tolist() == [[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]]
    assert g.payoff_range == (0.0, 2.0)


def test_example1_game_normalized():
    g = example1_game(normalized=True)
    assert g.payoff_range == (0.0, 1.0)
    assert g.payoff.max() == 1.0 and g.payoff.min() == 0.0


def test_coordination_game_identity():
    g = coordination_game(4)
    assert np.array_equal(g.payoff, np.eye(4))


def test_game_validation():
    with pytest.raises(ValueError):
        Game(2, 2, np.zeros((3, 2)), (0, 1))
    with pytest.raises(ValueError):
        Game(2, 2, np.array([[0, 2], [0, 0]]), (0, 1))  # payoff outside range
    with pytest.raises(ValueError):
        coordination_game(0)


def test_game_json_round_trip():
    g = example1_game()
    g2 = Game.from_json(g.to_json())
    assert np.array_equal(g.payoff, g2.payoff)
    assert g2.payoff_range == g.payoff_range
    parsed = json.loads(g.to_json())
    assert set(parsed) == {"rows", "cols", "payoff", "range"}


def test_history_append_and_copy():
    h = History([(0, 1), (1, 2)])
    assert len(h) == 2
    assert (h.alice[1], h.bob[1]) == (1, 2)
    h2 = History(h.pairs())
    h2.append(0, 0)
    assert len(h) == 2 and len(h2) == 3
    assert h.pairs() == [(0, 1), (1, 2)] and h2.pairs() == [(0, 1), (1, 2), (0, 0)]


def test_derive_trial_seed_is_stable_and_distinct():
    s = derive_trial_seed(42, 7, "learner")
    assert s == derive_trial_seed(42, 7, "learner")
    others = {
        derive_trial_seed(42, 7, "partner"),
        derive_trial_seed(42, 8, "learner"),
        derive_trial_seed(43, 7, "learner"),
    }
    assert s not in others and len(others) == 3


@given(st.integers(0, 2**32 - 1), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_derive_trial_seed_in_range(master, trial):
    s = derive_trial_seed(master, trial, "x")
    assert 0 <= s < 2**64


def test_simulate_payoffs_rejects_out_of_range_actions():
    g = example1_game()  # alice has actions 0..1, bob 0..2
    # a 3-action cycler leaves alice's range at stage 4 (actions 0 0 1 1 2)
    with pytest.raises(ContractViolation,
                       match="alice strategy 'periodic_switcher' emitted action 2 at stage 4"):
        simulate_payoffs(g, PeriodicSwitcher(3, 2), UniformPartner(3, 1), 10)
    # a 4-action cycler leaves bob's range at stage 6 (actions 0 0 1 1 2 2 3)
    with pytest.raises(ContractViolation,
                       match="bob strategy 'periodic_switcher' emitted action 3 at stage 6"):
        simulate_payoffs(g, UniformPartner(2, 1), PeriodicSwitcher(4, 2), 10)


def test_simulate_payoffs_within_range():
    g = example1_game()
    pays = simulate_payoffs(g, UniformPartner(2, 1), UniformPartner(3, 2), 5000)
    assert pays.min() >= 0.0 and pays.max() <= 2.0
    assert len(pays) == 5000


def test_rollout_is_bit_exact_reproducible():
    g = coordination_game(3)
    t1 = rollout(g, UniformPartner(3, None), UniformPartner(3, None), 400, seed=99)
    t2 = rollout(g, UniformPartner(3, None), UniformPartner(3, None), 400, seed=99)
    assert np.array_equal(t1.alice, t2.alice)
    assert np.array_equal(t1.bob, t2.bob)
    assert np.array_equal(t1.payoffs, t2.payoffs)
    t3 = rollout(g, UniformPartner(3, None), UniformPartner(3, None), 400, seed=100)
    assert not np.array_equal(t1.bob, t3.bob)


def _reference_simulate(game, pi, phi, horizon, history):
    """``simulate_payoffs`` without the absorbed poll: every stage is played."""
    out = np.empty(horizon)
    for n in range(horizon):
        a = pi.decide()
        if not 0 <= a < game.rows:
            raise ContractViolation(f"alice strategy {pi.name!r} emitted action {a} at stage {n}")
        b = phi.decide()
        if not 0 <= b < game.cols:
            raise ContractViolation(f"bob strategy {phi.name!r} emitted action {b} at stage {n}")
        out[n] = game._payoff_rows[a][b]
        pi.observe(a, b)
        phi.observe(a, b)
        history.append(a, b)
    return out


FAST_LEARNERS = {
    "fixed": ZOO["fixed"][2],
    **{f"etc-{T}": (lambda s, T=T: ExploreThenCommit(GAME, EXPERTS, T, s))
       for T in (3, 63, 64, 65, 130)},
    "mixed": ZOO["mixed"][2],
    "coin-commit": ZOO["coin-commit"][2],
}
FAST_PARTNERS = {
    "uniform-1": ZOO["uniform-1"][2],
    "uniform": ZOO["uniform"][2],
    # tau before and after each ETC commit, targets on and off the committed action
    **{f"switching-{tau}-{target}":
       (lambda s, tau=tau, target=target: SwitchingPartner(SwitchingSpec(tau, target, N), s))
       for tau in (0, 5, 100, 700) for target in range(N)},
    "grim-triggered": ZOO["grim"][2],
    "grim-kept": lambda s: GrimTrigger(GrimTriggerSpec(1, 0, 2, N), s),
    "fixed": lambda s: FixedAction(2, N, s),
    "random-choice": ZOO["random-choice"][2],
    "fictitious": ZOO["fictitious"][2],
    "fictitious-fine": ZOO["fictitious-fine"][2],
    "stationary": ZOO["stationary"][2],
    "stationary-point": ZOO["stationary-point"][2],
}
FAST_HORIZONS = (0, 1, 2, _POLL_BLOCK, _POLL_BLOCK + 1, _POLL_BLOCK + 2, 2 * _POLL_BLOCK + 1,
                 1000)


@pytest.mark.parametrize("learner", sorted(FAST_LEARNERS))
def test_simulate_payoffs_fast_path_matches_the_stage_loop(learner):
    for partner, make_partner in sorted(FAST_PARTNERS.items()):
        for horizon in FAST_HORIZONS:
            for seed in range(3):
                def pair(seed=seed):
                    return (fresh(FAST_LEARNERS[learner], 10 + seed),
                            fresh(make_partner, 20 + seed))
                case = (partner, horizon, seed)
                (pi, phi), (pi_ref, phi_ref) = pair(), pair()
                h, h_ref = History(), History()
                pays = simulate_payoffs(GAME, pi, phi, horizon, h)
                ref = _reference_simulate(GAME, pi_ref, phi_ref, horizon, h_ref)
                assert pays.tobytes() == ref.tobytes(), case
                assert simulate_payoffs(GAME, *pair(), horizon).tobytes() == ref.tobytes()
                assert (h.alice, h.bob) == (h_ref.alice, h_ref.bob), case
                assert all(type(x) is int for x in h.alice + h.bob)
                assert (pi._pos, phi._pos) == (pi_ref._pos, phi_ref._pos) == (horizon, horizon)
                # both pairs play on alike: each partner's stream is where it should be
                h, h_ref = History(), History()
                _reference_simulate(GAME, pi, phi, 50, h)
                _reference_simulate(GAME, pi_ref, phi_ref, 50, h_ref)
                assert (h.alice, h.bob) == (h_ref.alice, h_ref.bob), case


class _CountingUniform(UniformPartner):
    decides = 0

    def decide(self):
        self.decides += 1
        return super().decide()


def test_simulate_payoffs_stops_stepping_once_the_learner_is_absorbed():
    # stage 0, then one poll per block while a full block remains
    for horizon, stepped in ((_POLL_BLOCK, _POLL_BLOCK), (_POLL_BLOCK + 1, 1), (5000, 1)):
        phi = _CountingUniform(N, 0)
        simulate_payoffs(GAME, FixedAction(1, N), phi, horizon)
        assert phi.decides == stepped and phi._pos == horizon
    # ETC with T = 130 is first seen absorbed at the poll after stage 192
    phi = _CountingUniform(N, 0)
    simulate_payoffs(GAME, ExploreThenCommit(GAME, EXPERTS, 130), phi, 5000)
    assert phi.decides == 1 + 3 * _POLL_BLOCK and phi._pos == 5000


def test_simulate_payoffs_fast_path_range_checks_the_partners_answer():
    # five partner actions in a three-column game: the first 3 or 4 fails
    spec = SwitchingSpec(10**6, 0, 5)
    stages = []
    for seed in range(10):
        errors = []
        for run in (simulate_payoffs, _reference_simulate):
            with pytest.raises(ContractViolation, match="bob strategy 'switching'") as err:
                run(GAME, FixedAction(1, N), SwitchingPartner(spec, seed), 1000, History())
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        stages.append(int(errors[0].rsplit(" ", 1)[1]))
    assert max(stages) > 0  # some first bad action falls in the filled part


def test_simulate_payoffs_appends_to_history():
    g = coordination_game(3)
    h = History([(2, 2)])
    pays = simulate_payoffs(g, UniformPartner(3, 5), UniformPartner(3, 6), 50, h)
    assert len(h) == 51 and (h.alice[0], h.bob[0]) == (2, 2)
    assert [g.payoff[a, b] for a, b in h.pairs()[1:]] == pays.tolist()
    t = rollout(g, UniformPartner(3, 5), UniformPartner(3, 6), 50)
    assert t.alice.dtype == np.int64
    assert t.alice.tolist() == h.alice[1:] and t.bob.tolist() == h.bob[1:]


def test_commit_stats_last_switch_and_final_action():
    g = coordination_game(3)
    last, final = commit_stats(g, lambda s=None: PeriodicSwitcher(3, 7, s),
                               lambda s=None: UniformPartner(3, s), 4, 50, 0, "t")
    # switches at stages 7, 14, ..., 49; stage 49 plays (49 // 7) % 3 = 1
    assert last.tolist() == [49] * 4
    assert final.tolist() == [1] * 4
    last, final = commit_stats(g, lambda s=None: FixedAction(2, 3, s),
                               lambda s=None: UniformPartner(3, s), 2, 10, 0, "t")
    assert last.tolist() == [0, 0] and final.tolist() == [2, 2]


def _reference_commit_stats(game, learner_factory, partner_factory, trials, horizon, seed,
                            tag):
    """``commit_stats`` without the absorbed early exit: every stage is played."""
    last, final = [], []
    for t in range(trials):
        learner = learner_factory(derive_trial_seed(seed, t, f"{tag}-learner"))
        partner = partner_factory(derive_trial_seed(seed, t, f"{tag}-partner"))
        prev, sw = -1, 0
        for n in range(horizon):
            a, b = learner.decide(), partner.decide()
            learner.observe(a, b)
            partner.observe(a, b)
            if a != prev:
                sw, prev = n, a
        last.append(sw)
        final.append(prev)
    return last, final


def _commit_both(learner_factory, horizon, trials=4, n=3, seed=5):
    g = coordination_game(n)
    args = (g, learner_factory, lambda s=None: UniformPartner(n, s), trials, horizon, seed, "t")
    last, final = commit_stats(*args)
    assert (last.tolist(), final.tolist()) == _reference_commit_stats(*args)
    return final.tolist()


def test_commit_stats_early_exit_matches_the_full_loop_for_etc():
    g = coordination_game(3)
    experts = ExpertSet.fixed_actions(3)
    # T over every remainder of the poll block; with T % block == 1 a poll
    # lands right after the last exploration stage, so the commit stage is
    # the first one skipped
    new_action_at_boundary = 0
    for T in range(3, 3 + 2 * _POLL_BLOCK + 2):
        # a horizon of T ends right at the commit
        _commit_both(lambda s=None, T=T: ExploreThenCommit(g, experts, T, s), T)
        finals = _commit_both(lambda s=None, T=T: ExploreThenCommit(g, experts, T, s), T + 70)
        last_explored = experts.actions[-1]
        if T % _POLL_BLOCK == 1:
            new_action_at_boundary += sum(f != last_explored for f in finals)
    assert new_action_at_boundary > 0
    # horizons shorter than T, than the stages before the second poll, and zero
    for horizon in (0, 1, 2, 10, _POLL_BLOCK + 1, 99):
        _commit_both(lambda s=None: ExploreThenCommit(g, experts, 100, s), horizon)


def test_commit_stats_early_exit_matches_the_full_loop_for_other_learners():
    g = coordination_game(3)
    experts = ExpertSet.fixed_actions(3)

    def mixed(s=None):
        return MixedLearner(ExploreThenCommit(g, experts, 9),
                            StrategicExperts(g, experts, 0.3, None, s), 0.5, s)

    for horizon in (0, 1, 7, 300):
        _commit_both(mixed, horizon, trials=12)
        _commit_both(lambda s=None: FixedAction(1, 3, s), horizon)
        _commit_both(lambda s=None: PeriodicSwitcher(3, 5, s), horizon)


def test_commit_stats_stops_playing_once_the_learner_is_absorbed():
    g = coordination_game(3)
    partners = []

    def uniform(s=None):
        partners.append(UniformPartner(3, s))
        return partners[-1]

    commit_stats(g, lambda s=None: ExploreThenCommit(g, ExpertSet.fixed_actions(3), 9, s),
                 uniform, 3, 5000, 0, "t")
    assert all(p._pos <= 1 + _POLL_BLOCK for p in partners)


def test_commit_stats_checks_both_players_actions():
    g = coordination_game(3)

    class Bad(UniformPartner):
        def decide(self):
            return 3

    with pytest.raises(ContractViolation, match="alice"):
        commit_stats(g, lambda s=None: Bad(3, s), lambda s=None: UniformPartner(3, s),
                     1, 5, 0, "t")
    with pytest.raises(ContractViolation, match="bob"):
        commit_stats(g, lambda s=None: FixedAction(0, 3, s), lambda s=None: Bad(3, s),
                     1, 5, 0, "t")


def test_trajectory_jsonl_round_trip():
    g = example1_game()
    t = rollout(g, FixedAction(0, 2), GrimTrigger(GrimTriggerSpec(0, 0, 2, 3)), 10, seed=1)
    lines = t.to_jsonl().strip().split("\n")
    assert len(lines) == 10
    rec = json.loads(lines[0])
    assert set(rec) == {"n", "a", "b", "u"}
    recs = [json.loads(line) for line in lines]
    assert [r["n"] for r in recs] == list(range(10))
    assert [r["a"] for r in recs] == t.alice.tolist()
    assert [r["b"] for r in recs] == t.bob.tolist()
    assert [r["u"] for r in recs] == t.payoffs.tolist()


def test_replay_contract_sync_rejects_rewind():
    phi = GrimTrigger(GrimTriggerSpec(0, 0, 2, 3))
    phi._sync(History([(0, 0), (0, 0)]))
    with pytest.raises(ContractViolation):
        phi._sync(History([(0, 0)]))


def test_replay_reproduces_conditioned_state():
    """A fresh instance synced onto a history matches the live-played one."""
    h = History([(0, 0), (1, 0), (0, 2)])
    live = GrimTrigger(GrimTriggerSpec(0, 0, 2, 3))
    for a, b in h.pairs():
        live.observe(a, b)
    replayed = GrimTrigger(GrimTriggerSpec(0, 0, 2, 3))
    replayed._sync(h)
    assert live._triggered == replayed._triggered
    assert live.decide() == replayed.decide()
