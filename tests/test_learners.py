import copy

import numpy as np
import pytest

from repeated_games.core import History, coordination_game, derive_trial_seed, simulate_payoffs
from repeated_games.learners import (
    BernoulliSwitcher,
    ExpertSet,
    ExploreThenCommit,
    FixedAction,
    MixedLearner,
    PeriodicSwitcher,
    RandomChoiceStrategy,
    StrategicExperts,
)
from repeated_games.partners import UniformPartner


def _drive(learner, partner, horizon):
    actions = []
    for _ in range(horizon):
        a, b = learner.decide(), partner.decide()
        learner.observe(a, b)
        partner.observe(a, b)
        actions.append(a)
    return actions


def test_expert_set_fixed_actions():
    e = ExpertSet.fixed_actions(4)
    assert e.actions == (0, 1, 2, 3)
    assert len(e) == 4


def test_etc_round_robin_then_commit():
    g = coordination_game(3)
    etc = ExploreThenCommit(g, ExpertSet.fixed_actions(3), T=9, seed=0)
    assert etc.deterministic
    actions = _drive(etc, UniformPartner(3, 1), 30)
    assert actions[:9] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    committed = actions[9]
    assert all(a == committed for a in actions[9:])
    assert etc.committed_expert == committed


def test_etc_commits_to_argmax_with_lowest_tie():
    g = coordination_game(2)

    class Scripted(FixedAction):
        """Partner scripted so expert 1 earns strictly more during exploration."""

        def __init__(self):
            super().__init__(0, 2)
            self._script = iter([0, 0, 1, 1])

        def decide(self):
            return next(self._script, 0)

    etc = ExploreThenCommit(g, ExpertSet.fixed_actions(2), T=4, seed=0)
    _drive(etc, Scripted(), 6)
    assert etc.committed_expert == 0  # both experts scored 2; tie to lowest

    etc2 = ExploreThenCommit(g, ExpertSet.fixed_actions(2), T=4, seed=0)

    class Scripted2(Scripted):
        def __init__(self):
            super().__init__()
            self._script = iter([0, 1, 1, 1])

    _drive(etc2, Scripted2(), 6)
    assert etc2.committed_expert == 1


class LedgerExperts(StrategicExperts):
    """Strategic experts that record every phase they open."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.phase_ledger = []

    def _begin_phase(self):
        super()._begin_phase()
        self.phase_ledger.append(
            {"expert": self._current, "start": self._pos, "length": self._remaining})


def test_strategic_experts_phase_ledger_is_consistent():
    g = coordination_game(3)
    se = LedgerExperts(g, ExpertSet.fixed_actions(3), 0.2, None, seed=5)
    actions = _drive(se, UniformPartner(3, 2), 500)
    ledger = se.phase_ledger
    assert ledger[0]["start"] == 0
    for prev, cur in zip(ledger, ledger[1:]):
        assert cur["start"] == prev["start"] + prev["length"]
    # within each completed phase the played action is constant
    for rec in ledger[:-1]:
        span = actions[rec["start"]: rec["start"] + rec["length"]]
        assert len(set(span)) == 1
    # evaluation horizons grow: the k-th evaluation of an expert lasts k stages
    per_expert_lengths = {}
    for rec in ledger:
        per_expert_lengths.setdefault(rec["expert"], []).append(rec["length"])
    for lengths in per_expert_lengths.values():
        assert lengths[:-1] == list(range(1, len(lengths)))


def test_strategic_experts_switches_persistently():
    g = coordination_game(3)
    se = StrategicExperts(g, ExpertSet.fixed_actions(3), 0.2, None, seed=9)
    actions = _drive(se, UniformPartner(3, 3), 4000)
    switches_late = sum(
        1 for x, y in zip(actions[2000:], actions[2001:]) if x != y
    )
    assert switches_late >= 5  # active: keeps switching arbitrarily late


def test_strategic_experts_epsilon_callable():
    g = coordination_game(2)
    se = LedgerExperts(g, ExpertSet.fixed_actions(2), lambda k: 1.0, None, seed=1)
    _drive(se, UniformPartner(2, 2), 200)
    experts_seen = {rec["expert"] for rec in se.phase_ledger}
    assert experts_seen == {0, 1}


def test_mixed_learner_coin_is_seeded():
    g = coordination_game(3)

    def make(seed):
        return MixedLearner(
            FixedAction(0, 3), PeriodicSwitcher(3, 5), 0.5, seed
        )

    chosen = set()
    for seed in range(30):
        m = make(seed)
        m.decide()
        chosen.add(m.chose_active)
    assert chosen == {True, False}
    m1, m2 = make(11), make(11)
    assert [_first_actions(m1)] == [_first_actions(m2)]


def _first_actions(m, k=12):
    out = []
    for _ in range(k):
        a = m.decide()
        m.observe(a, 0)
        out.append(a)
    return tuple(out)


def test_mixed_learner_delegates_fully():
    m = MixedLearner(FixedAction(2, 3), PeriodicSwitcher(3, 2), 0.0, seed=4)
    acts = _first_actions(m, 8)
    # p=0 always picks the passive component
    assert acts == (2,) * 8
    m2 = MixedLearner(FixedAction(2, 3), PeriodicSwitcher(3, 2), 1.0, seed=4)
    assert _first_actions(m2, 6) == (0, 0, 1, 1, 2, 2)


def test_mixed_learner_keeps_its_member_seed_tags():
    # every mixed-learner result depends on these streams
    passive, active = FixedAction(0, 3), PeriodicSwitcher(3, 2)
    m = MixedLearner(passive, active, 0.5)
    m.reseed(9)
    assert passive._seed == derive_trial_seed(9, 0, "mixed-passive")
    assert active._seed == derive_trial_seed(9, 1, "mixed-active")
    c = m.clone(5)
    assert [s._seed for s in c._strategies] == [
        derive_trial_seed(5, 1, "mixed-active"), derive_trial_seed(5, 0, "mixed-passive")]


G3 = coordination_game(3)
E3 = ExpertSet.fixed_actions(3)


def _mixed(s=None):
    return MixedLearner(ExploreThenCommit(G3, E3, 9, s),
                        StrategicExperts(G3, E3, 0.3, None, s), 0.5, s)


def _choice(s=None):
    return RandomChoiceStrategy(
        [StrategicExperts(G3, E3, 0.3, None, s), PeriodicSwitcher(3, 2, s),
         ExploreThenCommit(G3, E3, 6, s)], [0.4, 0.3, 0.3], s)


MIXTURES = {"mixed": _mixed, "random-choice": _choice}
METHODS = ("decide", "observe", "absorbed", "respond", "observe_many")


@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_drawn_mixture_calls_its_member_directly(name):
    for seed in range(6):
        m = MIXTURES[name](seed)
        assert m._pos == 0 and all(n not in vars(m) for n in METHODS)
        _drive(m, UniformPartner(3, seed), 15)
        assert all(getattr(m, n).__self__ is m._chosen for n in METHODS)
        assert m._pos == m._chosen._pos == 15


def _played(name, seed, stages):
    """A fresh mixture after ``stages`` stages against partner stream 1."""
    m = MIXTURES[name](seed)
    _drive(m, UniformPartner(3, 1), stages)
    return m


@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_deepcopy_of_a_drawn_mixture_is_bound_to_its_own_member(name):
    m = _played(name, 3, 12)
    c = copy.deepcopy(m)
    assert c._chosen is not m._chosen
    assert all(getattr(c, n).__self__ is c._chosen for n in METHODS)
    assert _drive(c, UniformPartner(3, 2), 40) == _drive(_played(name, 3, 12),
                                                         UniformPartner(3, 2), 40)
    # playing the copy leaves the original where it was
    assert m._pos == 12
    assert _drive(m, UniformPartner(3, 4), 30) == _drive(_played(name, 3, 12),
                                                         UniformPartner(3, 4), 30)


def _member_index(m):
    return None if m._chosen is None else m._strategies.index(m._chosen)


def _next_actions(m, seed, stages=12):
    """A copy of ``m``'s next ``stages`` actions after reseeding it with
    ``seed``, facing a uniform partner on a fixed stream."""
    c = copy.deepcopy(m)
    c.reseed(seed)
    return _drive(c, UniformPartner(3, 77), stages)


@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_mixture_replay_gives_the_live_distribution_at_every_prefix(name):
    """A fresh mixture fed a prefix stands where the live one stood: the
    same stage, the same drawn member, and on common streams the same next
    decisions, which is the same next-action distribution."""
    for seed in range(4):
        live, partner = MIXTURES[name](seed), UniformPartner(3, 10 + seed)
        h, snapshots = History(), []
        for _ in range(60):
            snapshots.append(copy.deepcopy(live))
            a, b = live.decide(), partner.decide()
            live.observe(a, b)
            partner.observe(a, b)
            h.append(a, b)
        snapshots.append(live)
        for k, expected in enumerate(snapshots):
            fresh = MIXTURES[name](seed)
            fresh._sync(History(zip(h.alice[:k], h.bob[:k])))
            assert fresh._pos == expected._pos == k
            assert _member_index(fresh) == _member_index(expected)
            for common in (1, 2):
                assert _next_actions(fresh, common) == _next_actions(expected, common)


def test_simulate_payoffs_on_fresh_mixtures_matches_per_stage_lookups():
    for seed in range(6):
        pi, phi = _mixed(seed), _choice(100 + seed)
        h = History()
        pays = simulate_payoffs(G3, pi, phi, 200, h)
        pi, phi = _mixed(seed), _choice(100 + seed)
        ref_pays, ref_h = [], History()
        for _ in range(200):
            a, b = pi.decide(), phi.decide()
            ref_pays.append(G3._payoff_rows[a][b])
            pi.observe(a, b)
            phi.observe(a, b)
            ref_h.append(a, b)
        assert pays.tolist() == ref_pays
        assert h.pairs() == ref_h.pairs()


def test_periodic_switcher_cycles():
    p = PeriodicSwitcher(3, 4)
    assert _first_actions(p, 13) == (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0)


def test_bernoulli_switcher_decide_observe_consistency():
    b = BernoulliSwitcher(4, 0.3, seed=8)
    for _ in range(200):
        a = b.decide()
        assert a == b.decide()  # idempotent until observe
        b.observe(a, 0)
    acts = _first_actions(b, 500)
    switch_rate = np.mean([x != y for x, y in zip(acts, acts[1:])])
    assert 0.2 < switch_rate < 0.4


def test_fixed_action_validation():
    with pytest.raises(ValueError):
        FixedAction(3, 3)


def test_replay_contract_strategic_experts():
    """Feeding the realized prefix to a fresh same-seeded instance reproduces
    the live state and the continuation."""
    g = coordination_game(3)
    live = StrategicExperts(g, ExpertSet.fixed_actions(3), 0.2, None, seed=21)
    h = History()
    rng = np.random.default_rng(0)
    for _ in range(137):
        a = live.decide()
        b = int(rng.integers(0, 3))
        live.observe(a, b)
        h.append(a, b)
    fresh = StrategicExperts(g, ExpertSet.fixed_actions(3), 0.2, None, seed=21)
    fresh._sync(h)
    for _ in range(50):
        assert fresh.decide() == live.decide()
        a = live.decide()
        live.observe(a, 1)
        fresh.observe(a, 1)
