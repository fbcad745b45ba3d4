"""``Strategy.absorbed()`` is honest, for every strategy.

Whenever a strategy reports an absorbed action ``a``, it must play ``a``
at every later stage, whatever it observes: the deviation oracle skips
simulating such learners and scores them from ``a`` alone, and the stage
loop fills the rest of an absorbed learner's trial from the partner's
``respond(a, n)`` and advances both sides with ``observe_many``.
"""

import numpy as np
import pytest
from strategy_zoo import EXPERTS, GAME, N, T, ZOO, fresh, strategy_classes

from repeated_games.core import Strategy
from repeated_games.learners import (
    ExploreThenCommit,
    FixedAction,
    MixedLearner,
    RandomChoiceStrategy,
)
from repeated_games.partners import UniformPartner

PREFIX = 30  # stages over which absorption is looked for
CHECK = 200  # stages an absorbed action must hold for
SEEDS = range(6)


def test_zoo_covers_every_strategy_class():
    assert strategy_classes() == {cls for cls, _, _ in ZOO.values()}


def _absorption(strategy, side, seed):
    """Play ``strategy`` against a seeded uniform partner; from the first
    stage at which it reports an absorbed action, check that action for
    ``CHECK`` more stages. Returns ``(stage, action)``, or None if it never
    reports one within ``PREFIX`` stages."""
    other = UniformPartner(N, seed)
    pi, phi = (strategy, other) if side == "alice" else (other, strategy)
    found = None
    n, horizon = 0, PREFIX
    while n < horizon:
        fixed = strategy.absorbed()
        if found is None and fixed is not None:
            found = (n, fixed)
            horizon = n + CHECK
        if found is not None:
            assert fixed == found[1], f"absorbed action changed at stage {n}"
        a = pi.decide()
        b = phi.decide()
        if found is not None:
            assert (a if side == "alice" else b) == found[1], f"left the action at stage {n}"
        pi.observe(a, b)
        phi.observe(a, b)
        n += 1
    return found


@pytest.mark.parametrize("name", sorted(ZOO))
def test_absorbed_action_is_played_forever(name):
    _, side, make = ZOO[name]
    for seed in SEEDS:
        _absorption(make(100 + seed), side, seed)


def test_absorbing_cases_do_absorb():
    # the honesty checks above are not vacuous for the classes that override
    stages = {name: [_absorption(ZOO[name][2](100 + s), ZOO[name][1], s) for s in SEEDS]
              for name in ("fixed", "etc", "mixed", "coin-commit")}
    assert all(f is not None for name in ("fixed", "etc") for f in stages[name])
    for name in ("mixed", "coin-commit"):
        assert any(f is None for f in stages[name]) and any(f is not None for f in stages[name])


def test_etc_is_absorbed_exactly_from_stage_T():
    for seed in SEEDS:
        etc = ExploreThenCommit(GAME, EXPERTS, T, seed)
        partner = UniformPartner(N, seed)
        for n in range(T + 5):
            fixed = etc.absorbed()
            if n < T:
                assert fixed is None
            else:
                assert fixed == EXPERTS.actions[etc.committed_expert]
            a, b = etc.decide(), partner.decide()
            etc.observe(a, b)
            partner.observe(a, b)


def test_mixed_learner_is_not_absorbed_before_its_coin_flip():
    # both members are absorbed from the start, but which one plays is unknown
    for seed in SEEDS:
        mixed = MixedLearner(FixedAction(0, N), FixedAction(2, N), 0.5, seed)
        assert mixed.absorbed() is None and mixed.chose_active is None
        a = mixed.decide()
        assert mixed.absorbed() == a == (2 if mixed.chose_active else 0)


def test_fixed_action_is_always_absorbed():
    fixed = FixedAction(2, N, 0)
    partner = UniformPartner(N, 0)
    for _ in range(50):
        assert fixed.absorbed() == 2
        b = partner.decide()
        fixed.observe(fixed.decide(), b)
        partner.observe(2, b)


# -- respond / observe_many: the partner's side of the stage loop's fast path --

def _pair_at(name, prefix, seed):
    """Two equal instances of zoo case ``name``, each played ``prefix``
    stages on its own side against an equally seeded uniform partner."""
    _, side, make = ZOO[name]
    twins = []
    for _ in range(2):
        strategy, other = fresh(make, 100 + seed), UniformPartner(N, seed)
        pi, phi = (strategy, other) if side == "alice" else (other, strategy)
        for _ in range(prefix):
            a, b = pi.decide(), phi.decide()
            pi.observe(a, b)
            phi.observe(a, b)
        twins.append(strategy)
    return twins


def _stepped(strategy, a, n):
    """``strategy``'s actions over ``n`` stages at which Alice plays ``a``."""
    bs = []
    for _ in range(n):
        bs.append(strategy.decide())
        strategy.observe(a, bs[-1])
    return bs


def test_respond_and_observe_many_match_decide_and_observe():
    answered = set()
    for name, (cls, _, _) in sorted(ZOO.items()):
        for prefix in (0, 2, 9):
            for seed in range(4):  # both mixtures draw each kind of member
                for a in range(N):
                    for n in (0, 1, 5, 700):
                        bulk, stepped = _pair_at(name, prefix, seed)
                        bs = bulk.respond(a, n)
                        expect = _stepped(stepped, a, n)
                        if bs is None:
                            # cannot say, and drew nothing
                            assert _stepped(bulk, a, n) == expect
                        else:
                            answered.add(cls)
                            assert isinstance(bs, np.ndarray) and bs.dtype.kind == "i"
                            assert bs.tolist() == expect, (name, prefix, seed, a, n)
                            bulk.observe_many([a] * n, bs.tolist())
                        assert bulk._pos == stepped._pos == prefix + n
                        assert _stepped(bulk, a, 50) == _stepped(stepped, a, 50)
                        assert _stepped(bulk, 0, 50) == _stepped(stepped, 0, 50)
    overriding = {cls for cls in strategy_classes() if cls.respond is not Strategy.respond}
    # a mixture answers through its drawn member (RandomChoiceStrategy._bind)
    assert answered == overriding | {RandomChoiceStrategy}


def test_observe_many_matches_observe_on_mixed_histories():
    rng = np.random.default_rng(0)
    for name in sorted(ZOO):
        for length in (0, 1, 40):
            alice = rng.integers(0, N, size=length).tolist()
            bob = rng.integers(0, N, size=length).tolist()
            bulk, stepped = _pair_at(name, 3, 0)
            bulk.observe_many(alice, bob)
            for a, b in zip(alice, bob):
                stepped.observe(a, b)
            assert bulk._pos == stepped._pos
            assert _stepped(bulk, 1, 30) == _stepped(stepped, 1, 30), name
