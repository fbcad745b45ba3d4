"""Value estimation, regret notions, empirical checkers, and bound tables.

The limit-inferior in the average-payoff value is approximated at finite
horizon: every estimate reports both the full-window mean and the tail-window
mean, plus a liminf proxy (the minimum of tail means at geometric
checkpoints). Regret operations compare tail means, which converge to the
limit value for every construction exercised by the acceptance suite.
"""

from __future__ import annotations

import itertools
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import (
    ContractViolation,
    Game,
    History,
    commit_stats,
    derive_trial_seed,
    simulate_payoffs,
)
from .learners import FixedAction

__all__ = [
    "EstimatorParams",
    "ValueEstimate",
    "RegretEstimate",
    "OpenEndedRegret",
    "OpenEndedReport",
    "FlexibilityReport",
    "CommitTimeEstimate",
    "BoundTable",
    "estimate_value",
    "adaptive_regret",
    "external_regret",
    "open_ended_regret",
    "check_open_ended",
    "check_flexibility",
    "estimate_commit_time",
    "bound_table",
    "sample_histories",
]

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class EstimatorParams:
    """Monte Carlo budgets shared by the estimators."""

    trials: int = 2000
    horizon: int = 10_000
    tail_window: int | None = None  # default horizon // 4
    seed: int = 0
    parallelism: int = 1
    expert_trials: int | None = None  # lighter budget for near-deterministic arms

    def __post_init__(self):
        for name in ("trials", "horizon", "expert_trials"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"estimation {name} must be >= 1")

    def resolved_tail(self) -> int:
        return self.tail_window if self.tail_window is not None else max(1, self.horizon // 4)


@dataclass(frozen=True)
class ValueEstimate:
    """Monte Carlo estimate of the conditional expected average payoff."""

    mean: float
    ci_half_width: float
    tail_mean: float
    tail_ci_half_width: float
    liminf_proxy: float
    horizon: int
    tail_window: int
    trials: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "ci_half_width": self.ci_half_width,
            "tail_mean": self.tail_mean,
            "tail_ci_half_width": self.tail_ci_half_width,
            "liminf_proxy": self.liminf_proxy,
            "horizon": self.horizon,
            "tail_window": self.tail_window,
            "trials": self.trials,
        }


def _ci(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return Z95 * float(values.std(ddof=1)) / len(values) ** 0.5


def estimate_value(
    game: Game,
    pi_factory,
    phi_factory,
    h: History | None = None,
    params: EstimatorParams = EstimatorParams(),
) -> ValueEstimate:
    """Estimate V(pi, phi | h) by seeded Monte Carlo rollouts.

    Both factories must honor the replay contract: a fresh instance fed the
    conditioning history reproduces the conditioned strategy state. Trial
    seeds are derived per (trial, stream), so results are independent of
    scheduling and of ``params.parallelism``.
    """
    horizon = params.horizon
    tail = params.resolved_tail()
    if not horizon >= tail >= 1:
        raise ValueError("need horizon >= tail_window >= 1")
    h = h or History()
    checkpoints = sorted({max(1, horizon // 4), max(1, horizon // 2), horizon})

    def run_trial(t: int):
        pi = pi_factory(derive_trial_seed(params.seed, t, "learner"))
        phi = phi_factory(derive_trial_seed(params.seed, t, "partner"))
        try:
            pi._sync(h)
            phi._sync(h)
        except Exception as exc:  # noqa: BLE001 - surfaced as contract failure
            raise ContractViolation(f"replay onto conditioning history failed: {exc}") from exc
        payoffs = simulate_payoffs(game, pi, phi, horizon)
        cum = np.cumsum(payoffs)
        full_mean = cum[-1] / horizon
        tails = []
        for c in checkpoints:
            w = min(tail, c)
            lo = cum[c - 1 - w] if c - 1 - w >= 0 else 0.0
            tails.append((cum[c - 1] - lo) / w)
        return full_mean, tails

    if params.parallelism > 1:
        with ThreadPoolExecutor(max_workers=params.parallelism) as pool:
            results = list(pool.map(run_trial, range(params.trials)))
    else:
        results = [run_trial(t) for t in range(params.trials)]

    means = np.array([r[0] for r in results])
    tails = np.array([r[1] for r in results])  # trials x checkpoints
    checkpoint_means = tails.mean(axis=0)
    final_tail = tails[:, -1]
    return ValueEstimate(
        mean=float(means.mean()),
        ci_half_width=_ci(means),
        tail_mean=float(final_tail.mean()),
        tail_ci_half_width=_ci(final_tail),
        liminf_proxy=float(checkpoint_means.min()),
        horizon=horizon,
        tail_window=tail,
        trials=params.trials,
    )


def _fixed_factory(action: int, n_actions: int):
    return lambda seed=None: FixedAction(action, n_actions, seed)


@dataclass(frozen=True)
class RegretEstimate:
    regret: float
    ci_half_width: float
    learner: ValueEstimate
    per_expert: dict
    best_expert: int

    def to_dict(self) -> dict:
        return {
            "regret": self.regret,
            "ci_half_width": self.ci_half_width,
            "best_expert": self.best_expert,
            "learner": self.learner.to_dict(),
            "per_expert": {str(e): v.to_dict() for e, v in self.per_expert.items()},
        }


def adaptive_regret(
    game: Game,
    learner_factory,
    phi_factory,
    expert_actions,
    params: EstimatorParams = EstimatorParams(),
) -> RegretEstimate:
    """max_e V(e, phi) - V(learner, phi), fresh partner instance per arm.

    Each expert plays from the beginning of the game against its own copy of
    the partner, so the partner reacts to the expert rather than to the
    learner's logged actions (this is what separates adaptive from external
    regret). Values are tail means, approximating the limit average.
    """
    expert_params = params
    if params.expert_trials is not None:
        expert_params = replace(params, trials=params.expert_trials)
    per_expert = {}
    for e in expert_actions:
        per_expert[e] = estimate_value(
            game, _fixed_factory(e, game.rows), phi_factory, None,
            replace(expert_params, seed=derive_trial_seed(params.seed, e, "arm")),
        )
    learner_est = estimate_value(game, learner_factory, phi_factory, None, params)
    best_e = max(per_expert, key=lambda e: per_expert[e].tail_mean)
    best = per_expert[best_e]
    regret = best.tail_mean - learner_est.tail_mean
    ci = (best.tail_ci_half_width**2 + learner_est.tail_ci_half_width**2) ** 0.5
    return RegretEstimate(regret, ci, learner_est, per_expert, best_e)


def external_regret(trajectories, game: Game, expert_actions) -> float:
    """Counterfactual regret on logged partner actions (Bob held fixed)."""
    if not trajectories:
        raise ValueError("empty trajectory batch")
    pay = game.payoff
    best = None
    for e in expert_actions:
        diffs = []
        for tr in trajectories:
            if len(tr) == 0:
                raise ValueError("external regret undefined on empty trajectories")
            counter = pay[e, tr.bob]
            diffs.append(float((counter - tr.payoffs).mean()))
        val = float(np.mean(diffs))
        best = val if best is None else max(best, val)
    return best


@dataclass(frozen=True)
class OpenEndedRegret:
    regret: float
    ci_half_width: float
    learner: ValueEstimate
    per_expert_inf: dict
    worst_prefix: dict
    prefix_depth: int
    partial: bool

    def to_dict(self) -> dict:
        return {
            "regret": self.regret,
            "ci_half_width": self.ci_half_width,
            "prefix_depth": self.prefix_depth,
            "partial": self.partial,
            "per_expert_inf": {str(k): v for k, v in self.per_expert_inf.items()},
            "worst_prefix": {str(k): list(v) for k, v in self.worst_prefix.items()},
            "learner": self.learner.to_dict(),
        }


def _history_from_prefix(prefix, phi_factory, phi_seed) -> History:
    """Adversarial Alice prefix with Bob responding per phi."""
    phi = phi_factory(phi_seed)
    h = History()
    for a in prefix:
        b = phi.decide()
        phi.observe(a, b)
        h.append(a, b)
    return h


def open_ended_regret(
    game: Game,
    learner_factory,
    phi_factory,
    expert_actions,
    prefix_depth: int,
    params: EstimatorParams = EstimatorParams(),
    prefix_samples: int = 8,
    max_prefixes: int = 20_000,
) -> OpenEndedRegret:
    """max_e inf_h V(e, phi | h) - V(learner, phi), h over short adversarial prefixes.

    The infimum over all histories is truncated to Alice-chosen prefixes of
    length <= prefix_depth with Bob responding in character. A deterministic
    partner is enumerated exactly (single sample, single trial per prefix);
    stochastic partners are sampled ``prefix_samples`` times per prefix. When
    the prefix tree exceeds ``max_prefixes`` a uniform subsample is used and
    the result carries a ``partial`` marker.
    """
    probe = phi_factory(derive_trial_seed(params.seed, 0, "probe"))
    det = probe.deterministic
    prefixes = [()]
    for d in range(1, prefix_depth + 1):
        prefixes.extend(itertools.product(range(game.rows), repeat=d))
    partial = False
    if len(prefixes) > max_prefixes:
        partial = True
        rng = np.random.default_rng(derive_trial_seed(params.seed, 0, "prefix-subsample"))
        keep = rng.choice(len(prefixes), size=max_prefixes, replace=False)
        prefixes = [prefixes[i] for i in sorted(keep)]

    n_samples = 1 if det else prefix_samples
    arm_params = replace(params, trials=1 if det else (params.expert_trials or params.trials))
    per_expert_inf, worst_prefix = {}, {}
    for e in expert_actions:
        worst, worst_h = None, ()
        for p_idx, prefix in enumerate(prefixes):
            vals = []
            for s in range(n_samples):
                phi_seed = derive_trial_seed(params.seed, p_idx * 1009 + s, "prefix-phi")
                h = _history_from_prefix(prefix, phi_factory, phi_seed)
                est = estimate_value(
                    game, _fixed_factory(e, game.rows), phi_factory, h,
                    replace(arm_params, seed=derive_trial_seed(params.seed, p_idx, f"oe-{e}-{s}")),
                )
                vals.append(est.tail_mean)
            v = float(np.mean(vals))
            if worst is None or v < worst:
                worst, worst_h = v, prefix
        per_expert_inf[e] = worst
        worst_prefix[e] = worst_h
    learner_est = estimate_value(game, learner_factory, phi_factory, None, params)
    regret = max(per_expert_inf.values()) - learner_est.tail_mean
    return OpenEndedRegret(
        regret=regret,
        ci_half_width=learner_est.tail_ci_half_width,
        learner=learner_est,
        per_expert_inf=per_expert_inf,
        worst_prefix=worst_prefix,
        prefix_depth=prefix_depth,
        partial=partial,
    )


# ---------------------------------------------------------------------------
# Empirical open-endedness / flexibility checkers
# ---------------------------------------------------------------------------


def sample_histories(
    game: Game, phi_factory, count: int = 20, max_len: int = 40, seed: int = 0
) -> list[History]:
    """Reachable and adversarial conditioning histories.

    Mix of uniformly random joint histories, on-path histories generated
    against phi itself, and pure-commitment prefixes (Alice repeating one
    action), which are the adversarial cases for absorbing strategies.
    """
    rng = np.random.default_rng(derive_trial_seed(seed, 0, "history-sampler"))
    out = [History()]
    for e in range(game.rows):
        k = int(rng.integers(1, max_len + 1))
        out.append(_history_from_prefix([e] * k, phi_factory, derive_trial_seed(seed, e, "hs-phi")))
    i = 0
    while len(out) < count:
        i += 1
        k = int(rng.integers(1, max_len + 1))
        if i % 2 == 0:
            h = History(zip(rng.integers(0, game.rows, k), rng.integers(0, game.cols, k)))
        else:
            prefix = rng.integers(0, game.rows, k).tolist()
            h = _history_from_prefix(prefix, phi_factory, derive_trial_seed(seed, 100 + i, "hs-phi"))
        out.append(h)
    return out[:count]


@dataclass(frozen=True)
class OpenEndedReport:
    passed: bool
    mu_hat: dict
    spreads: dict
    tolerance: float
    violations: list
    n_histories: int

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "mu_hat": {str(k): v for k, v in self.mu_hat.items()},
            "spreads": {str(k): v for k, v in self.spreads.items()},
            "violations": self.violations,
            "n_histories": self.n_histories,
        }


def check_open_ended(
    game: Game,
    phi_factory,
    expert_actions,
    history_sampler=None,
    tolerance: float = 0.05,
    params: EstimatorParams = EstimatorParams(trials=200, horizon=4000),
) -> OpenEndedReport:
    """Estimate V(e, phi | h) over sampled histories; pass iff the per-expert
    spread stays within tolerance plus the Monte Carlo allowance."""
    histories = history_sampler() if callable(history_sampler) else history_sampler
    if histories is None:
        histories = sample_histories(game, phi_factory, seed=params.seed)
    mu_hat, spreads, violations = {}, {}, []
    passed = True
    for e in expert_actions:
        vals, cis = [], []
        for idx, h in enumerate(histories):
            est = estimate_value(
                game, _fixed_factory(e, game.rows), phi_factory, h,
                replace(params, seed=derive_trial_seed(params.seed, idx, f"oec-{e}")),
            )
            vals.append(est.tail_mean)
            cis.append(est.tail_ci_half_width)
        spread = max(vals) - min(vals)
        allowance = 2.0 * max(cis)
        mu_hat[e] = float(np.median(vals))
        spreads[e] = spread
        if spread > tolerance + allowance:
            passed = False
            violations.append(
                {
                    "expert": e,
                    "low_history": histories[int(np.argmin(vals))].pairs(),
                    "low_value": min(vals),
                    "high_value": max(vals),
                }
            )
    return OpenEndedReport(passed, mu_hat, spreads, tolerance, violations, len(histories))


@dataclass(frozen=True)
class FlexibilityReport:
    passed: bool
    c: float
    r: float
    mu_hat: dict
    violations: list
    n_checks: int

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "c": self.c,
            "r": self.r,
            "mu_hat": {str(k): v for k, v in self.mu_hat.items()},
            "violations": self.violations,
            "n_checks": self.n_checks,
        }


def check_flexibility(
    game: Game,
    phi_factory,
    expert_actions,
    c: float,
    r: float,
    history_sampler=None,
    s_grid=(8, 16, 32, 64),
    params: EstimatorParams = EstimatorParams(trials=100, horizon=4000),
) -> FlexibilityReport:
    """Check E[|avg payoff over s stages - mu_e| : h] <= c * s^-r empirically.

    mu_e is estimated from the empty history at the full horizon. A check
    fails only when the measured deviation exceeds the bound by more than the
    Monte Carlo allowance.
    """
    if r <= 0.25:
        warnings.warn("flexibility exponent r <= 1/4 is outside the standard regime",
                      stacklevel=2)
    histories = history_sampler() if callable(history_sampler) else history_sampler
    if histories is None:
        histories = sample_histories(game, phi_factory, seed=params.seed)
    mu_hat, violations = {}, []
    n_checks = 0
    for e in expert_actions:
        base = estimate_value(
            game, _fixed_factory(e, game.rows), phi_factory, None,
            replace(params, seed=derive_trial_seed(params.seed, e, "flex-mu")),
        )
        mu = base.tail_mean
        mu_hat[e] = mu
        for idx, h in enumerate(histories):
            for s in s_grid:
                devs = []
                for t in range(params.trials):
                    pi = FixedAction(e, game.rows,
                                     derive_trial_seed(params.seed, t, f"flex-{e}-{idx}-{s}-a"))
                    phi = phi_factory(
                        derive_trial_seed(params.seed, t, f"flex-{e}-{idx}-{s}-b"))
                    pi._sync(h)
                    phi._sync(h)
                    payoffs = simulate_payoffs(game, pi, phi, s)
                    devs.append(abs(float(payoffs.mean()) - mu))
                devs = np.asarray(devs)
                bound = c * s ** (-r)
                n_checks += 1
                if float(devs.mean()) - _ci(devs) > bound:
                    violations.append(
                        {
                            "expert": e,
                            "history": h.pairs(),
                            "s": s,
                            "deviation": float(devs.mean()),
                            "bound": bound,
                            "seed": params.seed,
                        }
                    )
    return FlexibilityReport(not violations, c, r, mu_hat, violations, n_checks)


# ---------------------------------------------------------------------------
# Commit-time estimation and closed-form bound tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommitTimeEstimate:
    tau: int
    gamma_hat: float
    degenerate: bool
    trials: int
    horizon: int

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "gamma_hat": self.gamma_hat,
            "degenerate": self.degenerate,
            "trials": self.trials,
            "horizon": self.horizon,
        }


def estimate_commit_time(
    game: Game,
    learner_factory,
    phi_factory,
    delta: float,
    trials: int = 200,
    horizon: int = 2000,
    tail_window: int | None = None,
    seed: int = 0,
) -> CommitTimeEstimate:
    """Empirical commit time tau with non-convergence estimate gamma_hat.

    gamma_hat is the fraction of trials that still switch actions within the
    final tail window; tau is the empirical (1 - delta - gamma_hat)-quantile
    of the last-switch stage among converging trials, so that empirically
    P(switch after tau) <= gamma_hat + delta.
    """
    tail = tail_window if tail_window is not None else horizon // 2
    last_switch, _ = commit_stats(
        game, learner_factory, phi_factory, trials, horizon, seed, "commit"
    )
    converged, gamma_hat = _convergence(last_switch, horizon, tail)
    if gamma_hat + delta >= 1.0 or not converged.any():
        return CommitTimeEstimate(0, gamma_hat, True, trials, horizon)
    tau = _commit_tau(last_switch, converged, gamma_hat, delta)
    return CommitTimeEstimate(tau, gamma_hat, False, trials, horizon)


def _convergence(last_switch: np.ndarray, horizon: int, tail: int):
    """Which trials converged (last switch before the final ``tail`` stages),
    and gamma_hat, the fraction that did not."""
    converged = last_switch < horizon - tail
    return converged, 1.0 - float(converged.mean())


def _commit_tau(last_switch: np.ndarray, converged: np.ndarray, gamma_hat: float,
                delta: float) -> int:
    """One past the (1 - delta - gamma_hat)-quantile of the converged trials'
    last switches; needs gamma_hat + delta < 1 and some converged trial."""
    q = min(1.0, max(0.0, 1.0 - delta - gamma_hat))
    return int(np.quantile(last_switch[converged], q)) + 1


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    # decimal-literal reading keeps 0.1 exact instead of its binary neighbor
    return Fraction(str(x))


@dataclass(frozen=True)
class BoundTable:
    """Exact closed-form regret bounds for the N-action coordination game."""

    N: int
    delta: Fraction
    gamma: Fraction
    passive_bound: Fraction
    active_bound: Fraction
    gamma_star: Fraction
    theorem1_bound: Fraction

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "delta": str(self.delta),
            "gamma": str(self.gamma),
            "passive_bound": str(self.passive_bound),
            "active_bound": str(self.active_bound),
            "gamma_star": str(self.gamma_star),
            "theorem1_bound": str(self.theorem1_bound),
            "passive_bound_float": float(self.passive_bound),
            "active_bound_float": float(self.active_bound),
            "gamma_star_float": float(self.gamma_star),
            "theorem1_bound_float": float(self.theorem1_bound),
        }


def bound_table(N: int, delta, gamma=None) -> BoundTable:
    """Exact-arithmetic bound calculators.

    passive_bound = (N-2)/N - gamma - delta, active_bound with the simplified
    (N-1)/N term, and theorem1_bound = [(N-2)/N - delta]^2 / 2. gamma_star
    is where passive_bound meets gamma * ((N-2)/N - delta), the active bound
    ``theorem1_adversary`` branches on; it is not where the two table bounds
    meet (N = 5, delta = 1/10 gives passive 1/6 and active 7/30 at
    gamma_star = 1/3). gamma defaults to gamma_star.
    """
    if N < 3:
        raise ValueError("bound table requires N >= 3")
    d = _as_fraction(delta)
    margin = Fraction(N - 2, N) - d
    if d <= 0 or margin <= 0:
        raise ValueError(f"delta must satisfy 0 < delta < {(N - 2)}/{N}")
    gamma_star = margin / (1 + margin)
    g = _as_fraction(gamma) if gamma is not None else gamma_star
    if not 0 <= g <= 1:
        raise ValueError("gamma must be in [0, 1]")
    return BoundTable(
        N=N,
        delta=d,
        gamma=g,
        passive_bound=margin - g,
        active_bound=g * (Fraction(N - 1, N) - d),
        gamma_star=gamma_star,
        theorem1_bound=margin * margin / 2,
    )

