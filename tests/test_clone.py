"""``Strategy.clone(seed)`` is ``deepcopy`` + ``reseed(seed)``, for every strategy."""

import copy
import types

import numpy as np
import pytest
from strategy_zoo import GAME, N, ZOO, strategy_classes

from repeated_games.core import History, Strategy, simulate_payoffs
from repeated_games.learners import ExploreThenCommit, MixedLearner, StrategicExperts
from repeated_games.partners import UniformPartner

NEXT = 60  # stages compared after the clone


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
    assert strategy_classes() == {cls for cls, _, _ in ZOO.values()}


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
