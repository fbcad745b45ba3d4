"""Simulation and analysis of learning against adaptive partners in repeated games."""

from .core import (
    ContractViolation,
    Game,
    History,
    Strategy,
    Trajectory,
    coordination_game,
    derive_trial_seed,
    example1_game,
    rollout,
    simulate_payoffs,
)
from .learners import (
    BernoulliSwitcher,
    ExpertSet,
    ExploreThenCommit,
    FixedAction,
    MixedLearner,
    PeriodicSwitcher,
    RandomChoiceStrategy,
    StrategicExperts,
)
from .machines import (
    Belief,
    FSMBehavioral,
    FSMStrategy,
    NotEncodable,
    exact_value,
    fsm_encode,
    is_computationally_rational,
    machine_game_value,
)
from .metrics import (
    BoundTable,
    EstimatorParams,
    ValueEstimate,
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
from .partners import (
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
    theorem1_adversary,
)

__version__ = "0.1.0"
