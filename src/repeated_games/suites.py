"""Named verification suites with pinned seeds.

Each suite reproduces one headline claim at desk scale and returns a
CriterionResult. Monte Carlo assertions use 3*CI margins; deterministic
constructions are checked for exact equality. The test suite and the
``verify`` CLI subcommand both run these.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import machines as M
from .core import (
    Game,
    commit_stats,
    coordination_game,
    derive_trial_seed,
    example1_game,
    rollout,
)
from .learners import (
    ExpertSet,
    ExploreThenCommit,
    FixedAction,
    MixedLearner,
    StrategicExperts,
)
from .metrics import (
    EstimatorParams,
    _history_from_prefix,
    adaptive_regret,
    bound_table,
    check_flexibility,
    check_open_ended,
    estimate_commit_time,
    estimate_value,
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
    RandomChoiceStrategy,
    StationaryPartner,
    SwitchingPartner,
    SwitchingSpec,
    UniformPartner,
    theorem1_adversary,
)

__all__ = ["CriterionResult", "SUITES", "run_suite", "run_all"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s)"


def _check(checks: dict) -> tuple[bool, dict]:
    """checks: name -> (bool, detail). Returns (all passed, flat details)."""
    details = {}
    ok = True
    for name, (good, detail) in checks.items():
        details[name] = {"passed": bool(good), **detail}
        ok = ok and bool(good)
    return ok, details


# ---------------------------------------------------------------------------
# Shared constructions
# ---------------------------------------------------------------------------


def _grim1(seed=None):
    return GrimTrigger(GrimTriggerSpec(0, 0, 2, 3), seed)


def _grim2(seed=None):
    return GrimTrigger(GrimTriggerSpec(1, 1, 2, 3), seed)


def _grim_mixture(seed=None):
    return RandomChoiceStrategy([_grim1(), _grim2()], None, seed)


def _coin_commit(seed=None):
    return RandomChoiceStrategy([FixedAction(0, 2), FixedAction(1, 2)], None, seed)


def _fixed(action, n):
    return lambda seed=None: FixedAction(action, n, seed)


# ---------------------------------------------------------------------------
# 1. Grim-trigger example: exact values, coin-commit value 3/2, regret 1/2
# ---------------------------------------------------------------------------


def suite_example1(seed: int = 101) -> CriterionResult:
    t0 = time.perf_counter()
    g = example1_game()

    # Exact limit values, by machine product walk and by deterministic trace.
    fa1 = M.fsm_encode("fixed", action=0, n_opponent_actions=3)
    fa2 = M.fsm_encode("fixed", action=1, n_opponent_actions=3)
    mg1 = M.fsm_encode("grim_trigger", expected_alice_action=0, cooperate_action=0,
                       punish_action=2, n_opponent_actions=2)
    mg2 = M.fsm_encode("grim_trigger", expected_alice_action=1, cooperate_action=1,
                       punish_action=2, n_opponent_actions=2)
    exact_11 = M.exact_value(g, fa1, mg1)
    exact_22 = M.exact_value(g, fa2, mg2)
    trace_params = EstimatorParams(trials=1, horizon=10_000, seed=seed)
    trace_11 = estimate_value(g, _fixed(0, 2), _grim1, None, trace_params).tail_mean
    trace_22 = estimate_value(g, _fixed(1, 2), _grim2, None, trace_params).tail_mean

    params = EstimatorParams(trials=2000, horizon=10_000, seed=seed, expert_trials=8)
    value = estimate_value(g, _coin_commit, _grim_mixture, None, params)
    reg = adaptive_regret(g, _coin_commit, _grim1, (0, 1), params)

    ok, details = _check({
        "exact_value_a1_phi1": (exact_11 == Fraction(2), {"value": str(exact_11)}),
        "exact_value_a2_phi2": (exact_22 == Fraction(2), {"value": str(exact_22)}),
        "trace_a1_phi1": (trace_11 == 2.0, {"value": trace_11}),
        "trace_a2_phi2": (trace_22 == 2.0, {"value": trace_22}),
        "coin_commit_value_3_2": (
            abs(value.tail_mean - 1.5) <= 3 * value.tail_ci_half_width,
            {"value": value.tail_mean, "ci": value.tail_ci_half_width},
        ),
        "adaptive_regret_1_2": (
            abs(reg.regret - 0.5) <= 3 * reg.ci_half_width,
            {"regret": reg.regret, "ci": reg.ci_half_width,
             "per_expert": {e: v.tail_mean for e, v in reg.per_expert.items()}},
        ),
    })
    return CriterionResult("example1", ok, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 2. Fictitious play is not flexible: deterministic witness
# ---------------------------------------------------------------------------


def suite_prop1_witness(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    g = example1_game()
    fp = FictitiousPlayPartner(g)
    for _ in range(32):
        b = fp.decide()
        fp.observe(0, b)
    window = []
    for _ in range(16):
        b = fp.decide()
        window.append(g.payoff[1, b])
        fp.observe(1, b)
    avg = float(np.mean(window))

    # mu for committing to the second row from the empty history: one stage
    # of payoff 0 before the empirical best response flips, then 2 forever.
    fp2 = FictitiousPlayPartner(g)
    mu_trace = []
    for _ in range(1000):
        b = fp2.decide()
        mu_trace.append(g.payoff[1, b])
        fp2.observe(1, b)
    mu = float(np.mean(mu_trace[-100:]))

    c, r, s = 2.0, 0.5, 16
    bound = c * s ** (-r)
    ok, details = _check({
        "window_average_exactly_0": (avg == 0.0, {"avg": avg}),
        "mu_e_is_2": (mu == 2.0, {"mu": mu}),
        "bound_exactly_0_5": (bound == 0.5, {"bound": bound}),
        "deviation_violates_bound": (abs(avg - mu) > bound,
                                     {"deviation": abs(avg - mu), "bound": bound}),
    })
    return CriterionResult("prop1-witness", ok, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 3. Fictitious play converges to best responses in cooperative games
# ---------------------------------------------------------------------------


def suite_prop3(seed: int = 7, cases: int = 200) -> CriterionResult:
    """After committing to row e following an arbitrary prefix h, fictitious
    play's action enters the best-response set B(e) within ceil(|h|/eps)+1
    stages and stays there (eps = the margin of B(e) over other columns)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    violations = []
    for case in range(cases):
        n = int(rng.integers(2, 6))
        payoff = rng.random((n, n))
        g = Game(n, n, payoff, (0.0, 1.0))
        e = int(rng.integers(0, n))
        row = payoff[e]
        best = int(np.argmax(row))
        margins = np.array([row[best] - row[b] for b in range(n) if b != best])
        eps = float(margins.min())
        if eps <= 0:  # continuum-draw ties have probability zero; guard anyway
            continue
        h_len = int(rng.integers(0, 51))
        fp = FictitiousPlayPartner(g)
        for _ in range(h_len):
            a = int(rng.integers(0, n))
            fp.observe(a, fp.decide())
        s_star = math.ceil(h_len / eps) + 1
        for s in range(s_star + 50):
            b = fp.decide()
            if s >= s_star and row[b] != row[best]:
                violations.append({"case": case, "stage": s, "b": b, "best": best,
                                   "h_len": h_len, "eps": eps})
                break
            fp.observe(e, b)
    ok, details = _check({
        "zero_violations": (not violations, {"cases": cases, "violations": violations[:5]}),
    })
    return CriterionResult("prop3", ok, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 4. Flexibility implies open-endedness over the built-in strategy zoo
# ---------------------------------------------------------------------------


def suite_prop2_crosscheck(seed: int = 17) -> CriterionResult:
    t0 = time.perf_counter()
    g = example1_game()
    experts = (0, 1)
    zoo = {
        "uniform": lambda s=None: UniformPartner(3, s),
        "stationary": lambda s=None: StationaryPartner([0.2, 0.5, 0.3], s),
        "fixed_b2": lambda s=None: FixedAction(1, 3, s),
        "grim_trigger": _grim1,
        "fictitious_play": lambda s=None: FictitiousPlayPartner(g, s),
        "switching": lambda s=None: SwitchingPartner(SwitchingSpec(50, 0, 3), s),
    }
    flex_params = EstimatorParams(trials=60, horizon=3000, seed=seed)
    oe_params = EstimatorParams(trials=60, horizon=2000, seed=seed)
    results, counterexamples = {}, []
    for name, factory in zoo.items():
        histories = sample_histories(g, factory, count=12, max_len=40, seed=seed)
        # make sure the long pure-commitment prefixes that defeat fictitious
        # play and absorbing triggers are always present
        for e in experts:
            histories.append(
                _history_from_prefix([e] * 32, factory, derive_trial_seed(seed, e, "zoo-commit"))
            )
        flex = check_flexibility(g, factory, experts, c=2.0, r=0.5,
                                 history_sampler=histories, params=flex_params)
        entry = {"flexible": flex.passed}
        if flex.passed:
            oe = check_open_ended(g, factory, experts, history_sampler=histories,
                                  tolerance=0.05, params=oe_params)
            entry["open_ended"] = oe.passed
            if not oe.passed:
                counterexamples.append({"strategy": name, "violations": oe.violations})
        results[name] = entry
    ok, details = _check({
        "no_counterexamples": (not counterexamples, {"zoo": results,
                                                     "counterexamples": counterexamples}),
        "some_strategy_is_flexible": (
            any(v["flexible"] for v in results.values()), {},
        ),
    })
    return CriterionResult("prop2-crosscheck", ok, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 5. Switching strategies defeat passive learners (coordination, N=4)
# ---------------------------------------------------------------------------


def suite_theorem2(seed: int = 23) -> CriterionResult:
    t0 = time.perf_counter()
    n, delta = 4, 0.05
    g = coordination_game(n)
    experts = ExpertSet.fixed_actions(n)

    def learner(s=None):
        return ExploreThenCommit(g, experts, 300, s)

    def unif(s=None):
        return UniformPartner(n, s)

    commit = estimate_commit_time(g, learner, unif, delta, trials=400, horizon=1500,
                                  seed=seed)
    # p_e: where the learner converges under uniform play; target the rarest
    _, finals = commit_stats(g, learner, unif, 400, 1500, seed, "pe")
    p_e = np.bincount(finals, minlength=n) / len(finals)
    target = int(np.argmin(p_e))
    spec = SwitchingSpec(commit.tau, target, n)

    def switching(s=None):
        return SwitchingPartner(spec, s)

    params = EstimatorParams(trials=2000, horizon=10_000, seed=seed, expert_trials=100)
    reg = adaptive_regret(g, learner, switching, experts.actions, params)

    oe_params = EstimatorParams(trials=80, horizon=4000, seed=seed)
    oe = check_open_ended(g, switching, experts.actions, tolerance=0.05, params=oe_params)
    mu_target = oe.mu_hat[target]
    mu_other = [oe.mu_hat[e] for e in experts.actions if e != target]

    ok, details = _check({
        "not_degenerate": (not commit.degenerate,
                           {"tau": commit.tau, "gamma_hat": commit.gamma_hat}),
        "regret_lower_bound": (
            reg.regret >= 0.45 - 3 * reg.ci_half_width,
            {"regret": reg.regret, "ci": reg.ci_half_width, "target": target,
             "p_e": p_e.tolist(), "learner_value": reg.learner.tail_mean},
        ),
        "switching_is_open_ended": (oe.passed, {"mu_hat": oe.mu_hat}),
        "mu_target_is_1": (abs(mu_target - 1.0) <= 0.02, {"mu_target": mu_target}),
        "mu_other_is_1_4": (
            all(abs(m - 0.25) <= 0.02 for m in mu_other), {"mu_other": mu_other},
        ),
    })
    return CriterionResult("theorem2", ok, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 6. The predictive exploiter defeats active learners (coordination, N=3)
# ---------------------------------------------------------------------------


def suite_theorem3(seed: int = 31) -> CriterionResult:
    t0 = time.perf_counter()
    n, delta = 3, 0.05
    g = coordination_game(n)
    experts = ExpertSet.fixed_actions(n)

    def learner(s=None):
        return StrategicExperts(g, experts, 0.2, None, s)

    oracle = OracleParams(trials=48, sigma_cap=600, seed=seed)

    def exploiter(s=None):
        return PredictiveExploiter(learner, g, delta, oracle, s)

    params = EstimatorParams(trials=96, horizon=3000, tail_window=750, seed=seed,
                             expert_trials=12)
    reg = adaptive_regret(g, learner, exploiter, experts.actions, params)
    learner_value = reg.learner.tail_mean
    ci = reg.learner.tail_ci_half_width

    ex = exploiter(derive_trial_seed(seed, 0, "audit"))
    rollout(g, learner(derive_trial_seed(seed, 0, "audit-learner")), ex, 3000)
    deltas = [rec["delta_i"] for rec in ex.audit_log]
    budget_ok = sum(deltas) <= delta and all(
        d == delta / 2.0 ** (i + 1) for i, d in enumerate(deltas)
    )

    ok, details = _check({
        "learner_at_chance": (
            learner_value <= 1.0 / n + 3 * ci, {"value": learner_value, "ci": ci},
        ),
        "regret_lower_bound": (
            reg.regret >= (n - 1) / n - delta - 3 * reg.ci_half_width,
            {"regret": reg.regret, "ci": reg.ci_half_width,
             "per_expert": {e: v.tail_mean for e, v in reg.per_expert.items()}},
        ),
        "delta_budget_exact": (budget_ok, {"sum_delta_i": sum(deltas),
                                           "intervals": len(deltas)}),
    })
    return CriterionResult("theorem3", ok, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 7. The composite adversary defeats mixed learners (coordination, N=5)
# ---------------------------------------------------------------------------


def suite_theorem1(seed: int = 43) -> CriterionResult:
    t0 = time.perf_counter()
    n, delta = 5, 0.1
    g = coordination_game(n)
    experts = ExpertSet.fixed_actions(n)

    def learner(s=None):
        s = s or 0
        return MixedLearner(
            ExploreThenCommit(g, experts, 250, derive_trial_seed(s, 0, "passive")),
            StrategicExperts(g, experts, 0.2, None, derive_trial_seed(s, 1, "active")),
            0.5,
            s,
        )

    # The mixed pool's survival tail is long (passive clones hold an action
    # for a whole exploration block), so the horizon cap needs headroom or
    # interval 0 is uncertifiable and the adversary never mirrors.
    gp = GammaEstimateParams(trials=100, horizon=1200, seed=seed,
                             oracle=OracleParams(trials=48, sigma_cap=1500, seed=seed))
    _, info = theorem1_adversary(learner, g, experts.actions, delta, gp)
    table = bound_table(n, delta)

    params = EstimatorParams(trials=48, horizon=3000, tail_window=750, seed=seed,
                             expert_trials=8)
    reg = adaptive_regret(g, learner, info["factory"], experts.actions, params)

    ok, details = _check({
        "regret_above_theorem1_bound": (
            reg.regret >= float(table.theorem1_bound) - 3 * reg.ci_half_width,
            {"regret": reg.regret, "ci": reg.ci_half_width,
             "bound": float(table.theorem1_bound), "branch": info["branch"],
             "gamma_hat": info["gamma_hat"]},
        ),
    })
    return CriterionResult("theorem1", ok, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 8. Open-ended regret: agreement with adaptive regret, and the -1 case
# ---------------------------------------------------------------------------


def suite_corollary1(seed: int = 59) -> CriterionResult:
    t0 = time.perf_counter()
    n = 3
    g = coordination_game(n)
    experts = ExpertSet.fixed_actions(n)
    spec = SwitchingSpec(80, 0, n)

    def switching(s=None):
        return SwitchingPartner(spec, s)

    def learner(s=None):
        return ExploreThenCommit(g, experts, 120, s)

    params = EstimatorParams(trials=300, horizon=2000, seed=seed, expert_trials=16)
    ar = adaptive_regret(g, learner, switching, experts.actions, params)
    oe = open_ended_regret(g, learner, switching, experts.actions, prefix_depth=2,
                           params=params, prefix_samples=4)
    tol = 3 * (ar.ci_half_width + oe.ci_half_width)

    # Deterministic case: grim trigger vs the cooperating fixed row. One
    # poisoned stage drops every expert's guaranteed value to the punishment
    # payoff, so the open-ended regret is exactly 1 - 2 = -1.
    det_params = EstimatorParams(trials=1, horizon=4000, seed=seed)
    oe_grim = open_ended_regret(example1_game(), _fixed(0, 2), _grim1, (0, 1),
                                prefix_depth=1, params=det_params)

    ok, details = _check({
        "matches_adaptive_regret": (
            abs(oe.regret - ar.regret) <= tol,
            {"open_ended": oe.regret, "adaptive": ar.regret, "tolerance": tol},
        ),
        "grim_trigger_exactly_minus_1": (
            oe_grim.regret == -1.0,
            {"regret": oe_grim.regret,
             "per_expert_inf": oe_grim.per_expert_inf,
             "worst_prefix": {k: list(v) for k, v in oe_grim.worst_prefix.items()}},
        ),
    })
    return CriterionResult("corollary1", ok, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 9. Machine games: exact value grid and rationality verdicts
# ---------------------------------------------------------------------------


def suite_machine_games(seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    g = example1_game()
    fa1 = M.fsm_encode("fixed", action=0, n_opponent_actions=3)
    fa2 = M.fsm_encode("fixed", action=1, n_opponent_actions=3)
    mg1 = M.fsm_encode("grim_trigger", expected_alice_action=0, cooperate_action=0,
                       punish_action=2, n_opponent_actions=2)
    mg2 = M.fsm_encode("grim_trigger", expected_alice_action=1, cooperate_action=1,
                       punish_action=2, n_opponent_actions=2)
    grid = {
        "a1_phi1": (M.exact_value(g, fa1, mg1), Fraction(2)),
        "a2_phi1": (M.exact_value(g, fa2, mg1), Fraction(1)),
        "a2_phi2": (M.exact_value(g, fa2, mg2), Fraction(2)),
        "a1_phi2": (M.exact_value(g, fa1, mg2), Fraction(1)),
    }

    bob_fixed = [M.fsm_encode("fixed", action=b, n_opponent_actions=2) for b in range(3)]
    mirror = M.fsm_encode("mirror", n_actions=2)
    candidates = bob_fixed + [mg1, mg2, mirror]

    point_a1 = M.Belief(((fa1, 1),))
    verdict_grim = M.is_computationally_rational(g, mg1, point_a1, candidates)
    fifty_fifty = M.Belief(((fa1, Fraction(1, 2)), (fa2, Fraction(1, 2))))
    verdict_mirror = M.is_computationally_rational(g, mirror, fifty_fifty, candidates)

    ok, details = _check({
        "exact_grid_2_1_2_1": (
            all(v == want for v, want in grid.values()),
            {k: str(v) for k, (v, _) in grid.items()},
        ),
        "grim_fails_under_point_belief": (
            not verdict_grim.passed
            and verdict_grim.witness is not None
            and verdict_grim.witness.label == "fixed-0",
            {"witness": verdict_grim.witness.label if verdict_grim.witness else None,
             "value": str(verdict_grim.value)},
        ),
        "mirror_passes_under_5050": (
            verdict_mirror.passed, {"value": str(verdict_mirror.value)},
        ),
    })
    return CriterionResult("machine-games", ok, details, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 10. Infrastructure: reproducibility, parallelism, exact bounds
# ---------------------------------------------------------------------------


def suite_infrastructure(seed: int = 71, workdir=None) -> CriterionResult:
    import tempfile
    from pathlib import Path

    from .harness import run_scenario

    t0 = time.perf_counter()
    config = {
        "seed": seed,
        "game": {"kind": "example1"},
        "experts": {"actions": [0, 1]},
        "learner": {"kind": "random_commit", "actions": [0, 1]},
        "partner": {"kind": "mixture", "probs": [0.5, 0.5], "components": [
            {"kind": "grim_trigger", "expected": 0, "cooperate": 0, "punish": 2},
            {"kind": "grim_trigger", "expected": 1, "cooperate": 1, "punish": 2},
        ]},
        "metric": {"kind": "adaptive_regret"},
        "estimation": {"trials": 120, "horizon": 2000, "expert_trials": 8},
    }
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        run_scenario(dict(config), tmp / "run1", parallelism=1)
        run_scenario(dict(config), tmp / "run2", parallelism=1)
        run_scenario(dict(config), tmp / "run8", parallelism=8)
        r1 = (tmp / "run1" / "report.json").read_bytes()
        r2 = (tmp / "run2" / "report.json").read_bytes()
        r8 = (tmp / "run8" / "report.json").read_bytes()
        c1 = (tmp / "run1" / "summary.csv").read_bytes()
        c2 = (tmp / "run2" / "summary.csv").read_bytes()

    table = bound_table(5, 0.1)
    ok, details = _check({
        "seeded_reruns_byte_identical": (r1 == r2 and c1 == c2, {"bytes": len(r1)}),
        "parallelism_1_vs_8_identical": (r1 == r8, {}),
        "gamma_star_5_01_is_1_3": (
            table.gamma_star == Fraction(1, 3), {"gamma_star": str(table.gamma_star)},
        ),
        "theorem1_bound_5_01_is_1_8": (
            table.theorem1_bound == Fraction(1, 8),
            {"theorem1_bound": str(table.theorem1_bound)},
        ),
    })
    return CriterionResult("infrastructure", ok, details, time.perf_counter() - t0)


SUITES = {
    "example1": suite_example1,
    "prop1-witness": suite_prop1_witness,
    "prop3": suite_prop3,
    "prop2-crosscheck": suite_prop2_crosscheck,
    "theorem2": suite_theorem2,
    "theorem3": suite_theorem3,
    "theorem1": suite_theorem1,
    "corollary1": suite_corollary1,
    "machine-games": suite_machine_games,
    "infrastructure": suite_infrastructure,
}


def run_suite(name: str) -> CriterionResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name]()


def run_all(echo=None) -> list[CriterionResult]:
    results = []
    for name in SUITES:
        res = run_suite(name)
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results


def summary_json(results) -> str:
    return json.dumps(
        {
            "passed": all(r.passed for r in results),
            "suites": {r.name: {"passed": r.passed, "details": r.details} for r in results},
        },
        sort_keys=True,
        indent=2,
        default=str,
    ) + "\n"
