"""One table of strategy cases, shared by the per-strategy protocol tests
(``clone``, ``absorbed``, ``respond`` / ``observe_many``) and the stage-loop
tests."""

from repeated_games import learners, machines, partners
from repeated_games.core import Game, Strategy, coordination_game
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
# non-dyadic payoffs: fictitious-play scores tie and round as they are summed
FINE_GAME = Game(N, N, [[0.1, 0.3, 0.2], [0.3, 0.1, 0.2], [0.2, 0.2, 0.2]], (0.0, 1.0))


def mixed(p):
    """A factory of ETC / strategic-experts mixtures that pick the active
    learner with probability ``p``."""
    def make(seed=None):
        return MixedLearner(ExploreThenCommit(GAME, EXPERTS, T, 1),
                            StrategicExperts(GAME, EXPERTS, 0.3, None, 2), p, seed)
    return make


# name -> (strategy class, side it plays, factory)
ZOO = {
    "fixed": (FixedAction, "alice", lambda s: FixedAction(1, N, s)),
    "etc": (ExploreThenCommit, "alice", lambda s: ExploreThenCommit(GAME, EXPERTS, T, s)),
    "strategic": (StrategicExperts, "alice",
                  lambda s: StrategicExperts(GAME, EXPERTS, 0.3, None, s)),
    "mixed": (MixedLearner, "alice", mixed(0.5)),
    "mixed-active": (MixedLearner, "alice", mixed(1.0)),
    "mixed-passive": (MixedLearner, "alice", mixed(0.0)),
    "coin-commit": (RandomChoiceStrategy, "alice", lambda s: RandomChoiceStrategy(
        [FixedAction(0, N), FixedAction(2, N), StrategicExperts(GAME, EXPERTS, 0.3)],
        None, s)),
    "periodic": (PeriodicSwitcher, "alice", lambda s: PeriodicSwitcher(N, 4, s)),
    "bernoulli": (BernoulliSwitcher, "alice", lambda s: BernoulliSwitcher(N, 0.3, s)),
    "uniform": (UniformPartner, "bob", lambda s: UniformPartner(N, s)),
    "uniform-1": (UniformPartner, "bob", lambda s: UniformPartner(1, s)),
    "grim": (GrimTrigger, "bob", lambda s: GrimTrigger(GrimTriggerSpec(0, 0, 2, N), s)),
    "switching": (SwitchingPartner, "bob",
                  lambda s: SwitchingPartner(SwitchingSpec(4, 1, N), s)),
    "fictitious": (FictitiousPlayPartner, "bob", lambda s: FictitiousPlayPartner(GAME, s)),
    "fictitious-fine": (FictitiousPlayPartner, "bob",
                        lambda s: FictitiousPlayPartner(FINE_GAME, s)),
    "stationary": (StationaryPartner, "bob", lambda s: StationaryPartner([0.2, 0.5, 0.3], s)),
    "stationary-point": (StationaryPartner, "bob",
                         lambda s: StationaryPartner([0.0, 1.0, 0.0], s)),
    "random-choice": (RandomChoiceStrategy, "bob", lambda s: RandomChoiceStrategy(
        [UniformPartner(N), StrategicExperts(GAME, EXPERTS, 0.3)], None, s)),
    "exploiter": (PredictiveExploiter, "bob", lambda s: PredictiveExploiter(
        mixed(0.5), GAME, 0.1, OracleParams(trials=4, sigma_cap=30, seed=3), s)),
    "fsm": (FSMBehavioral, "bob",
            lambda s: FSMBehavioral(fsm_encode("mirror", n_actions=N), N, "bob", s)),
}


def fresh(make, seed):
    """A new instance from ``make`` on stream ``seed``, a mixture's members
    included (factories leave those unseeded)."""
    strategy = make(None)
    strategy.reseed(seed)
    return strategy


def strategy_classes():
    """Every ``Strategy`` subclass the library's strategy modules define."""
    return {
        obj
        for mod in (learners, partners, machines)
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Strategy) and obj.__module__ == mod.__name__
    }
