"""``Strategy.absorbed()`` is honest, for every strategy.

Whenever a strategy reports an absorbed action ``a``, it must play ``a``
at every later stage, whatever it observes: the deviation oracle skips
simulating such learners and scores them from ``a`` alone.
"""

import numpy as np
import pytest

from repeated_games import learners, machines, partners
from repeated_games.core import Strategy, coordination_game, point_mass
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
from repeated_games.machines import FSMBehavioral, fsm_encode
from repeated_games.partners import (
    FictitiousPlayPartner,
    GrimTrigger,
    GrimTriggerSpec,
    OracleParams,
    PredictiveExploiter,
    StationaryPartner,
    SwitchingPartner,
    SwitchingSpec,
    UniformPartner,
)

N = 3
GAME = coordination_game(N)
EXPERTS = ExpertSet.fixed_actions(N)
T = 6  # exploration length of the ETC cases
PREFIX = 30  # stages over which absorption is looked for
CHECK = 200  # stages an absorbed action must hold for
SEEDS = range(6)


def _mixed(seed=None):
    return MixedLearner(ExploreThenCommit(GAME, EXPERTS, T, 1),
                        StrategicExperts(GAME, EXPERTS, 0.3, None, 2), 0.5, seed)


# name -> (strategy class, side it plays, factory)
ZOO = {
    "fixed": (FixedAction, "alice", lambda s: FixedAction(1, N, s)),
    "etc": (ExploreThenCommit, "alice", lambda s: ExploreThenCommit(GAME, EXPERTS, T, s)),
    "strategic": (StrategicExperts, "alice",
                  lambda s: StrategicExperts(GAME, EXPERTS, 0.3, None, s)),
    "mixed": (MixedLearner, "alice", _mixed),
    "periodic": (PeriodicSwitcher, "alice", lambda s: PeriodicSwitcher(N, 4, s)),
    "bernoulli": (BernoulliSwitcher, "alice", lambda s: BernoulliSwitcher(N, 0.3, s)),
    "random-choice": (RandomChoiceStrategy, "alice", lambda s: RandomChoiceStrategy(
        [FixedAction(0, N), FixedAction(2, N), StrategicExperts(GAME, EXPERTS, 0.3)],
        None, s)),
    "uniform": (UniformPartner, "bob", lambda s: UniformPartner(N, s)),
    "grim": (GrimTrigger, "bob", lambda s: GrimTrigger(GrimTriggerSpec(0, 0, 2, N), s)),
    "switching": (SwitchingPartner, "bob",
                  lambda s: SwitchingPartner(SwitchingSpec(4, 1, N), s)),
    "fictitious": (FictitiousPlayPartner, "bob", lambda s: FictitiousPlayPartner(GAME, s)),
    "stationary": (StationaryPartner, "bob", lambda s: StationaryPartner([0.2, 0.5, 0.3], s)),
    "exploiter": (PredictiveExploiter, "bob", lambda s: PredictiveExploiter(
        _mixed, GAME, 0.1, OracleParams(trials=4, sigma_cap=30, seed=3), s)),
    "fsm": (FSMBehavioral, "bob",
            lambda s: FSMBehavioral(fsm_encode("mirror", n_actions=N), N, "bob", s)),
}


def test_zoo_covers_every_strategy_class():
    defined = {
        obj
        for mod in (learners, partners, machines)
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Strategy) and obj.__module__ == mod.__name__
    }
    assert defined == {cls for cls, _, _ in ZOO.values()}


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
            assert np.array_equal(strategy.probs(), point_mass(N, found[1]))
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
              for name in ("fixed", "etc", "mixed", "random-choice")}
    assert all(f is not None for name in ("fixed", "etc") for f in stages[name])
    for name in ("mixed", "random-choice"):
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
