"""Punishing commitment: the switching partner against explore-then-commit.

A learner that settles on one action by some stage tau can be measured: we
estimate tau and the convergence profile p_e under uniform play, then build
the partner that plays uniformly until tau and afterwards cooperates only
with the action the learner is least likely to have committed to. The
committed learner is stuck near chance while the right expert earns 1.
"""

from repeated_games import (
    EstimatorParams,
    ExpertSet,
    ExploreThenCommit,
    GammaEstimateParams,
    adaptive_regret,
    check_open_ended,
    coordination_game,
    theorem1_adversary,
)

N = 4
game = coordination_game(N)
experts = ExpertSet.fixed_actions(N)


def learner(seed=None):
    return ExploreThenCommit(game, experts, 300, seed)


# The composite adversary measures tau and p_e from one batch of learner runs
# against uniform play; a learner that always commits takes its switching
# branch.
_, info = theorem1_adversary(learner, game, 0.05,
                             GammaEstimateParams(trials=300, horizon=1500, seed=0))
assert info["branch"] == "switching"
print(f"estimated commit time tau = {info['tau']}, gamma_hat = {info['gamma_hat']}")
print(f"convergence profile p_e = {[round(p, 3) for p in info['p_e']]}, "
      f"targeting action {info['target']}")
switching = info["factory"]

params = EstimatorParams(trials=400, horizon=8000, seed=2, expert_trials=50)
reg = adaptive_regret(game, learner, switching, experts.actions, params)
print(f"\nlearner value  {reg.learner.tail_mean:.3f}")
print(f"expert values  {({e: round(v.tail_mean, 3) for e, v in reg.per_expert.items()})}")
print(f"adaptive regret {reg.regret:.3f} (+/- {reg.ci_half_width:.3f}); "
      f"theory promises (N-2)/N - delta = {(N - 2) / N - 0.05}")

oe = check_open_ended(game, switching, experts.actions,
                      params=EstimatorParams(trials=50, horizon=4000, seed=3))
print(f"\nopen-ended? {oe.passed}; per-expert limit values {oe.mu_hat}")
