"""Command-line entry point.

Exit codes: 0 success, 1 declared-threshold or suite failure, 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import machines as M
from .harness import (
    ConfigError,
    ScenarioConfig,
    default_out_dir,
    load_config,
    run_scenario,
    sweep,
)
from .metrics import bound_table
from .suites import SUITES, run_all, run_suite, summary_json


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="scenario config (YAML)")
    p.add_argument("--seed", type=int, help="override the config's master seed")
    p.add_argument("--out", type=Path, help="output directory (default $REPEATED_GAMES_OUT)")
    p.add_argument("--parallelism", type=int, default=None, help="worker threads")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="stdout summary format")


def _load(args, forced_metric: str | None = None) -> ScenarioConfig:
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.raw["seed"] = args.seed
    if forced_metric is not None:
        cfg.raw.setdefault("metric", {})
        cfg.raw["metric"]["kind"] = forced_metric
    return cfg


def _emit(report, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(report.to_json())
    else:
        print("\n".join(report.summary_head()))


def _run_and_emit(args, forced_metric=None) -> int:
    cfg = _load(args, forced_metric)
    out = args.out if args.out is not None else default_out_dir()
    report = run_scenario(cfg, out, args.parallelism)
    _emit(report, args.format)
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    return _run_and_emit(args, "simulate")


def cmd_regret(args) -> int:
    cfg = _load(args)
    kind = cfg.raw.get("metric", {}).get("kind", "adaptive_regret")
    if kind not in ("adaptive_regret", "external_regret", "open_ended_regret"):
        kind = "adaptive_regret"
    cfg.raw.setdefault("metric", {})["kind"] = kind
    out = args.out if args.out is not None else default_out_dir()
    report = run_scenario(cfg, out, args.parallelism)
    _emit(report, args.format)
    return 0 if report.passed else 1


def cmd_check(args) -> int:
    forced = {"flexibility": "check_flexibility",
              "open-ended": "check_open_ended"}[args.property]
    cfg = _load(args, forced)
    out = args.out if args.out is not None else default_out_dir()
    report = run_scenario(cfg, out, args.parallelism)
    _emit(report, args.format)
    if not report.results.get("passed", True):
        return 1
    return 0 if report.passed else 1


def cmd_exploit(args) -> int:
    cfg = _load(args)
    cfg.raw.setdefault("metric", {"kind": "value"})
    cfg.raw.setdefault("output", {})["audit"] = True
    if "partner" not in cfg.raw:
        raise ConfigError("exploit needs a partner section (an adversary kind)")
    out = args.out if args.out is not None else default_out_dir()
    report = run_scenario(cfg, out, args.parallelism)
    _emit(report, args.format)
    return 0 if report.passed else 1


def cmd_fsm(args) -> int:
    from .core import Game
    from .harness import _build_game

    if args.config is not None:
        game = _build_game(load_config(args.config).raw.get("game", {}))
    elif args.game is not None:
        game = Game.from_json(Path(args.game).read_text())
    else:
        raise ConfigError("fsm needs --config or --game")
    alice = M.FSMStrategy.from_json(Path(args.alice).read_text())
    bob = M.FSMStrategy.from_json(Path(args.bob).read_text())
    if args.action == "value":
        v = M.exact_value(game, alice, bob)
        out = {"value": str(v), "value_float": float(v)}
    else:
        candidates = [M.FSMStrategy.from_json(Path(p).read_text())
                      for p in args.candidates or []]
        belief = M.Belief(((alice, 1),))
        verdict = M.is_computationally_rational(game, bob, belief, candidates)
        out = verdict.to_dict()
    print(json.dumps(out, sort_keys=True, indent=2))
    if args.action == "rational" and not out["passed"]:
        return 1
    return 0


def cmd_bounds(args) -> int:
    table = bound_table(args.n, args.delta, args.gamma)
    d = table.to_dict()
    if args.format == "csv":
        keys = sorted(d)
        print(",".join(keys))
        print(",".join(str(d[k]) for k in keys))
    else:
        print(json.dumps(d, sort_keys=True, indent=2))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    grid = json.loads(args.grid) if args.grid else cfg.raw.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("grid must be a mapping of dotted field -> list of values")
    out = args.out if args.out is not None else default_out_dir()
    reports = sweep(cfg, grid, out, args.parallelism)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports)} points, {len(failed)} failed")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        results = run_all(echo=print)
    else:
        if args.suite not in SUITES:
            print(f"unknown suite {args.suite!r}; available: "
                  f"{', '.join(sorted(SUITES))} or 'all'", file=sys.stderr)
            return 2
        results = [run_suite(args.suite)]
        print(results[0].line())
    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "verify.json").write_text(summary_json(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeated-games",
        description="Simulate repeated matrix games and measure learner regret "
                    "against adaptive partners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="roll out one learner/partner trajectory")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("regret", help="estimate adaptive/external/open-ended regret")
    _add_common(p)
    p.set_defaults(func=cmd_regret)

    p = sub.add_parser("check", help="empirical flexibility / open-endedness checks")
    p.add_argument("property", choices=("flexibility", "open-ended"))
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("exploit", help="construct an adversary and write its audit log")
    _add_common(p)
    p.set_defaults(func=cmd_exploit)

    p = sub.add_parser("fsm", help="exact machine-game values and rationality verdicts")
    p.add_argument("action", choices=("value", "rational"))
    p.add_argument("--alice", required=True, help="Alice FSM JSON path")
    p.add_argument("--bob", required=True, help="Bob FSM JSON path")
    p.add_argument("--game", help="game JSON path")
    p.add_argument("--candidates", nargs="*", help="candidate FSM JSON paths")
    p.add_argument("--config", type=Path, help="config providing the game section")
    p.set_defaults(func=cmd_fsm)

    p = sub.add_parser("bounds", help="closed-form lower-bound table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="run a scenario over a parameter grid")
    _add_common(p)
    p.add_argument("--grid", help='JSON mapping, e.g. \'{"game.n": [3,4,5]}\'')
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a named acceptance suite (or 'all')")
    p.add_argument("suite")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
