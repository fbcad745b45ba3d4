"""Scenario configuration, experiment execution, and result persistence.

A scenario is a declarative YAML mapping (game / learner / partner / experts /
metric / estimation / thresholds). Running one produces a deterministic
report: two runs with the same config and seed write byte-identical files
(wall time goes to a sidecar, never into the report).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import learners, metrics, partners
from .core import Game, coordination_game, derive_trial_seed, example1_game, rollout
from .learners import ExpertSet
from .metrics import EstimatorParams

__all__ = [
    "ConfigError",
    "ThresholdFailure",
    "ScenarioConfig",
    "RunReport",
    "load_config",
    "run_scenario",
    "sweep",
]

REPORT_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """The scenario config references unknown kinds or invalid parameters."""


class ThresholdFailure(RuntimeError):
    """A declared threshold was violated (CLI exit code 1)."""


# ---------------------------------------------------------------------------
# Constructors addressable from configs
# ---------------------------------------------------------------------------


def _build_game(spec: dict) -> Game:
    kind = spec.get("kind")
    if kind == "coordination":
        return coordination_game(int(spec["n"]))
    if kind == "example1":
        return example1_game(bool(spec.get("normalized", False)))
    if kind == "matrix":
        payoff = np.asarray(spec["payoff"], dtype=float)
        lo, hi = spec.get("range", (float(payoff.min()), float(payoff.max())))
        return Game(payoff.shape[0], payoff.shape[1], payoff, (lo, hi))
    raise ConfigError(f"unknown game kind {kind!r}")


def _build_experts(spec: dict | None, game: Game) -> ExpertSet:
    if spec is None or spec.get("kind", "fixed_actions") == "fixed_actions":
        actions = spec.get("actions") if spec else None
        if actions is None:
            return ExpertSet.fixed_actions(game.rows)
        return ExpertSet(tuple(int(a) for a in actions))
    raise ConfigError(f"unknown experts kind {spec.get('kind')!r}")


def _learner_factory(spec: dict, game: Game, experts: ExpertSet):
    kind = spec.get("kind")
    if kind == "fixed":
        action = int(spec["action"])
        return lambda seed=None: learners.FixedAction(action, game.rows, seed)
    if kind == "explore_then_commit":
        T = int(spec.get("T", 100 * len(experts)))
        return lambda seed=None: learners.ExploreThenCommit(game, experts, T, seed)
    if kind == "strategic_experts":
        eps = float(spec.get("epsilon", 0.2))
        return lambda seed=None: learners.StrategicExperts(game, experts, eps, None, seed)
    if kind == "mixed":
        p = float(spec.get("p", 0.5))
        passive = _learner_factory(spec["passive"], game, experts)
        active = _learner_factory(spec["active"], game, experts)

        def make(seed=None):
            return learners.MixedLearner(
                passive(derive_trial_seed(seed or 0, 0, "cfg-passive")),
                active(derive_trial_seed(seed or 0, 1, "cfg-active")),
                p,
                seed,
            )

        return make
    if kind == "random_commit":
        actions = [int(a) for a in spec.get("actions", experts.actions)]

        def make(seed=None):
            subs = [learners.FixedAction(a, game.rows) for a in actions]
            return partners.RandomChoiceStrategy(subs, None, seed)

        return make
    if kind == "periodic_switcher":
        period = int(spec.get("period", 10))
        return lambda seed=None: learners.PeriodicSwitcher(game.rows, period, seed)
    if kind == "bernoulli_switcher":
        p = float(spec.get("switch_prob", 0.5))
        return lambda seed=None: learners.BernoulliSwitcher(game.rows, p, seed)
    raise ConfigError(f"unknown learner kind {kind!r}")


def _partner_factory(spec: dict, game: Game, experts: ExpertSet, learner_factory=None):
    kind = spec.get("kind")
    if kind == "uniform":
        return lambda seed=None: partners.UniformPartner(game.cols, seed)
    if kind == "stationary":
        probs = spec["probs"]
        return lambda seed=None: partners.StationaryPartner(probs, seed)
    if kind == "grim_trigger":
        gspec = partners.GrimTriggerSpec(
            int(spec["expected"]), int(spec["cooperate"]), int(spec["punish"]), game.cols
        )
        return lambda seed=None: partners.GrimTrigger(gspec, seed)
    if kind == "switching":
        sspec = partners.SwitchingSpec(int(spec["tau"]), int(spec["target"]), game.cols)
        return lambda seed=None: partners.SwitchingPartner(sspec, seed)
    if kind == "fictitious_play":
        return lambda seed=None: partners.FictitiousPlayPartner(game, seed)
    if kind == "mixture":
        component_specs = spec["components"]
        probs = spec.get("probs")
        subs = [
            _partner_factory(c, game, experts, learner_factory) for c in component_specs
        ]

        def make(seed=None):
            built = [
                f(derive_trial_seed(seed or 0, k, "cfg-mixture")) for k, f in enumerate(subs)
            ]
            return partners.RandomChoiceStrategy(built, probs, seed)

        return make
    if kind == "predictive_exploiter":
        if learner_factory is None:
            raise ConfigError("predictive_exploiter needs a learner section")
        delta = float(spec.get("delta", 0.05))
        oracle = partners.OracleParams(
            trials=int(spec.get("oracle_trials", 48)),
            sigma_cap=int(spec.get("sigma_cap", 400)),
            seed=int(spec.get("oracle_seed", 0)),
            max_total_steps=spec.get("max_oracle_steps"),
        )
        return lambda seed=None: partners.PredictiveExploiter(
            learner_factory, game, delta, oracle, seed
        )
    if kind == "theorem1_adversary":
        if learner_factory is None:
            raise ConfigError("theorem1_adversary needs a learner section")
        delta = float(spec.get("delta", 0.1))
        params = partners.GammaEstimateParams(
            trials=int(spec.get("gamma_trials", 200)),
            horizon=int(spec.get("gamma_horizon", 1500)),
            seed=int(spec.get("gamma_seed", 0)),
            oracle=partners.OracleParams(
                trials=int(spec.get("oracle_trials", 48)),
                sigma_cap=int(spec.get("sigma_cap", 400)),
                seed=int(spec.get("oracle_seed", 0)),
                max_total_steps=spec.get("max_oracle_steps"),
            ),
        )
        _, info = partners.theorem1_adversary(
            learner_factory, game, experts.actions, delta, params
        )
        return info["factory"]
    raise ConfigError(f"unknown partner kind {kind!r}")


# ---------------------------------------------------------------------------
# Scenario objects
# ---------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    raw: dict

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))

    def estimator_params(self, parallelism: int | None = None) -> EstimatorParams:
        est = self.raw.get("estimation", {})
        return EstimatorParams(
            trials=int(est.get("trials", 2000)),
            horizon=int(est.get("horizon", 10_000)),
            tail_window=est.get("tail_window"),
            seed=self.seed,
            parallelism=parallelism or int(est.get("parallelism", 1)),
            expert_trials=est.get("expert_trials"),
        )


@dataclass
class RunReport:
    config: dict
    results: dict
    thresholds: list = field(default_factory=list)
    passed: bool = True
    schema_version: int = REPORT_SCHEMA_VERSION
    wall_time: float | None = None  # persisted to the sidecar, not the report

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "config": self.config,
                "results": self.results,
                "thresholds": self.thresholds,
                "passed": self.passed,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"

    def summary_head(self) -> list[str]:
        """Header and headline row of ``summary.csv``, also the CLI's csv output."""
        res = self.results
        est = self.config.get("estimation", {})
        row = [
            self.config.get("metric", {}).get("kind", "value"),
            res.get("regret", res.get("mean", res.get("mean_payoff", ""))),
            res.get("ci_half_width", ""),
            est.get("trials", ""),
            est.get("horizon", ""),
            self.config.get("seed", 0),
        ]
        return ["metric,estimate,ci,trials,horizon,seed", ",".join(str(x) for x in row)]


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    return ScenarioConfig(raw)


def _lookup(d: dict, dotted: str):
    cur = d
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(f"threshold field {dotted!r} not found in results")
        cur = cur[part]
    return cur


def _check_thresholds(results: dict, specs) -> tuple[list, bool]:
    evaluated = []
    ok = True
    for spec in specs or []:
        value = _lookup(results, spec["field"])
        entry = {"field": spec["field"], "value": value}
        good = True
        if "min" in spec:
            entry["min"] = spec["min"]
            good = good and value >= spec["min"]
        if "max" in spec:
            entry["max"] = spec["max"]
            good = good and value <= spec["max"]
        entry["passed"] = bool(good)
        ok = ok and good
        evaluated.append(entry)
    return evaluated, ok


def run_scenario(
    config: ScenarioConfig | dict,
    out_dir=None,
    parallelism: int | None = None,
) -> RunReport:
    """Execute the declared metric and (optionally) persist report files."""
    if isinstance(config, dict):
        config = ScenarioConfig(config)
    raw = config.raw
    t0 = time.perf_counter()

    game = _build_game(raw.get("game", {"kind": "coordination", "n": 3}))
    experts = _build_experts(raw.get("experts"), game)
    learner_spec = raw.get("learner")
    learner_factory = (
        _learner_factory(learner_spec, game, experts) if learner_spec else None
    )
    partner_spec = raw.get("partner")
    partner_factory = (
        _partner_factory(partner_spec, game, experts, learner_factory)
        if partner_spec
        else None
    )
    metric = raw.get("metric", {"kind": "value"})
    kind = metric.get("kind")
    params = config.estimator_params(parallelism)
    seed = config.seed

    artifacts: dict[str, str] = {}
    if kind == "simulate":
        if learner_factory is None or partner_factory is None:
            raise ConfigError("simulate needs learner and partner sections")
        traj = rollout(
            game,
            learner_factory(derive_trial_seed(seed, 0, "learner")),
            partner_factory(derive_trial_seed(seed, 0, "partner")),
            params.horizon,
        )
        results = {
            "mean_payoff": float(traj.payoffs.mean()) if len(traj) else 0.0,
            "horizon": params.horizon,
        }
        artifacts["trajectory.jsonl"] = traj.to_jsonl()
    elif kind == "value":
        est = metrics.estimate_value(game, learner_factory, partner_factory, None, params)
        results = est.to_dict()
    elif kind == "adaptive_regret":
        est = metrics.adaptive_regret(
            game, learner_factory, partner_factory, experts.actions, params
        )
        results = est.to_dict()
    elif kind == "external_regret":
        n_traj = int(metric.get("trajectories", 50))
        trajs = [
            rollout(
                game,
                learner_factory(derive_trial_seed(seed, t, "learner")),
                partner_factory(derive_trial_seed(seed, t, "partner")),
                params.horizon,
            )
            for t in range(n_traj)
        ]
        results = {
            "external_regret": metrics.external_regret(trajs, game, experts.actions)
        }
    elif kind == "open_ended_regret":
        est = metrics.open_ended_regret(
            game,
            learner_factory,
            partner_factory,
            experts.actions,
            int(metric.get("prefix_depth", 4)),
            params,
        )
        results = est.to_dict()
    elif kind == "check_open_ended":
        rep = metrics.check_open_ended(
            game, partner_factory, experts.actions,
            tolerance=float(metric.get("tolerance", 0.05)), params=params,
        )
        results = rep.to_dict()
    elif kind == "check_flexibility":
        rep = metrics.check_flexibility(
            game, partner_factory, experts.actions,
            c=float(metric.get("c", 2.0)), r=float(metric.get("r", 0.5)),
            s_grid=tuple(metric.get("s_grid", (8, 16, 32, 64))), params=params,
        )
        results = rep.to_dict()
    elif kind == "commit_time":
        est = metrics.estimate_commit_time(
            game, learner_factory, partner_factory,
            delta=float(metric.get("delta", 0.05)),
            trials=params.trials, horizon=params.horizon, seed=seed,
        )
        results = est.to_dict()
    elif kind == "bounds":
        table = metrics.bound_table(
            int(metric.get("N", game.rows)), metric.get("delta", 0.1), metric.get("gamma")
        )
        results = table.to_dict()
    else:
        raise ConfigError(f"unknown metric kind {kind!r}")

    if raw.get("output", {}).get("audit") and partner_factory is not None:
        probe = partner_factory(derive_trial_seed(seed, 0, "audit"))
        if hasattr(probe, "audit_jsonl"):
            rollout(game, learner_factory(derive_trial_seed(seed, 0, "learner")),
                    probe, params.horizon)
            artifacts["audit.jsonl"] = probe.audit_jsonl()

    thresholds, ok = _check_thresholds(results, raw.get("thresholds"))
    report = RunReport(
        config=raw,
        results=results,
        thresholds=thresholds,
        passed=ok,
        wall_time=time.perf_counter() - t0,
    )
    if out_dir is not None:
        _persist(report, artifacts, out_dir)
    return report


def _csv_rows(results: dict, prefix=""):
    for key, value in sorted(results.items()):
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _csv_rows(value, prefix=f"{name}.")
        elif isinstance(value, (int, float, str, bool)):
            yield name, value


def _persist(report: RunReport, artifacts: dict, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json())
    lines = report.summary_head()
    for name, value in _csv_rows(report.results):
        lines.append(f"{name},{value},,,,")
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    for fname, text in artifacts.items():
        (out / fname).write_text(text)
    (out / "run_meta.json").write_text(
        json.dumps({"wall_time_s": report.wall_time}) + "\n"
    )


def _set_dotted(d: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    cur = d
    for p in parts[:-1]:
        cur = cur.setdefault(p, {})
    cur[parts[-1]] = value


def sweep(
    config: ScenarioConfig | dict,
    grid: dict,
    out_dir=None,
    parallelism: int | None = None,
) -> list[RunReport]:
    """Run the scenario over the cartesian product of dotted-field overrides.

    Per-point failures are recorded (``error`` key in the combined table) and
    the sweep continues. An empty grid degenerates to the config's own run.
    """
    import copy as _copy
    import itertools

    if isinstance(config, dict):
        config = ScenarioConfig(config)
    fields = sorted(grid)
    combos = list(itertools.product(*(grid[f] for f in fields))) if fields else [()]
    reports = []
    rows = []
    for i, combo in enumerate(combos):
        raw = _copy.deepcopy(config.raw)
        for f, v in zip(fields, combo):
            _set_dotted(raw, f, v)
        point_dir = None if out_dir is None else Path(out_dir) / f"point_{i:03d}"
        row = {f: v for f, v in zip(fields, combo)}
        try:
            rep = run_scenario(ScenarioConfig(raw), point_dir, parallelism)
            reports.append(rep)
            for name, value in _csv_rows(rep.results):
                row[name] = value
            row["passed"] = rep.passed
        except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
            row["error"] = str(exc)
            reports.append(RunReport(config=raw, results={"error": str(exc)}, passed=False))
        rows.append(row)
    if out_dir is not None:
        cols: list[str] = []
        for row in rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(str(row.get(c, "")) for c in cols))
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "sweep.csv").write_text("\n".join(lines) + "\n")
    return reports


def default_out_dir() -> Path:
    return Path(os.environ.get("REPEATED_GAMES_OUT", "runs"))
