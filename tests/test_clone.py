"""``Strategy.clone(seed)`` is ``deepcopy`` + ``reseed(seed)``, for every strategy."""

import copy
import types

import numpy as np
import pytest

from repeated_games import learners, machines, partners
from repeated_games.core import History, Strategy, coordination_game, simulate_payoffs
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
NEXT = 60  # stages compared after the clone


def _mixed(p):
    def make(seed=None):
        return MixedLearner(ExploreThenCommit(GAME, EXPERTS, 6, 1),
                            StrategicExperts(GAME, EXPERTS, 0.3, None, 2), p, seed)
    return make


# name -> (strategy class, side it plays, factory)
ZOO = {
    "fixed": (FixedAction, "alice", lambda s: FixedAction(1, N, s)),
    "etc": (ExploreThenCommit, "alice", lambda s: ExploreThenCommit(GAME, EXPERTS, 6, s)),
    "strategic": (StrategicExperts, "alice",
                  lambda s: StrategicExperts(GAME, EXPERTS, 0.3, None, s)),
    "mixed-active": (MixedLearner, "alice", _mixed(1.0)),
    "mixed-passive": (MixedLearner, "alice", _mixed(0.0)),
    "periodic": (PeriodicSwitcher, "alice", lambda s: PeriodicSwitcher(N, 4, s)),
    "bernoulli": (BernoulliSwitcher, "alice", lambda s: BernoulliSwitcher(N, 0.3, s)),
    "uniform": (UniformPartner, "bob", lambda s: UniformPartner(N, s)),
    "grim": (GrimTrigger, "bob", lambda s: GrimTrigger(GrimTriggerSpec(0, 0, 2, N), s)),
    "switching": (SwitchingPartner, "bob",
                  lambda s: SwitchingPartner(SwitchingSpec(4, 1, N), s)),
    "fictitious": (FictitiousPlayPartner, "bob", lambda s: FictitiousPlayPartner(GAME, s)),
    "stationary": (StationaryPartner, "bob", lambda s: StationaryPartner([0.2, 0.5, 0.3], s)),
    "random-choice": (RandomChoiceStrategy, "bob", lambda s: RandomChoiceStrategy(
        [UniformPartner(N), StrategicExperts(GAME, EXPERTS, 0.3)], None, s)),
    "exploiter": (PredictiveExploiter, "bob", lambda s: PredictiveExploiter(
        _mixed(0.5), GAME, 0.1, OracleParams(trials=4, sigma_cap=30, seed=3), s)),
    "fsm": (FSMBehavioral, "bob",
            lambda s: FSMBehavioral(fsm_encode("mirror", n_actions=N), N, "bob", s)),
}


def _play(strategy, side, stages, seed):
    """The actions ``strategy`` emits over ``stages`` stages against a seeded
    uniform partner."""
    other = UniformPartner(N, seed)
    pi, phi = (strategy, other) if side == "alice" else (other, strategy)
    h = History()
    simulate_payoffs(GAME, pi, phi, stages, h)
    return h.alice if side == "alice" else h.bob


def _state(x):
    """A comparable picture of ``x``'s run state: object attributes and
    containers recursively, random streams by their generator state."""
    if isinstance(x, np.random.Generator):
        return x.bit_generator.state
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_state(v) for v in x]
    if isinstance(x, dict):
        return {k: _state(v) for k, v in x.items()}
    if isinstance(x, types.FunctionType):
        return x
    if hasattr(x, "__slots__"):
        return {k: _state(getattr(x, k)) for k in x.__slots__}
    if hasattr(x, "__dict__"):
        return (type(x).__name__, {k: _state(v) for k, v in vars(x).items()})
    return x


def test_zoo_covers_every_strategy_class():
    defined = {
        obj
        for mod in (learners, partners, machines)
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Strategy) and obj.__module__ == mod.__name__
    }
    assert defined == {cls for cls, _, _ in ZOO.values()}


def test_oracle_pool_learners_override_clone():
    for cls in (ExploreThenCommit, StrategicExperts, MixedLearner):
        assert cls.clone is not Strategy.clone


@pytest.mark.parametrize("played", [0, 9])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_clone_is_deepcopy_then_reseed(name, played):
    _, side, make = ZOO[name]
    original = make(11)
    _play(original, side, played, 21)
    if isinstance(original, MixedLearner):
        # interval 0 clones before the coin flip; later intervals after it
        assert (original._chosen is None) == (played == 0)
    snapshot = copy.deepcopy(original)
    reference = copy.deepcopy(original)
    reference.reseed(31)
    clone = original.clone(31)
    assert type(clone) is type(original)
    assert _state(clone) == _state(reference)
    assert _play(clone, side, NEXT, 41) == _play(reference, side, NEXT, 41)
    assert _state(clone) == _state(reference)
    # playing the clone leaves the original where it was
    assert original._pos == played
    assert _state(original) == _state(snapshot)
    assert _play(original, side, NEXT, 51) == _play(snapshot, side, NEXT, 51)
