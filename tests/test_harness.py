import json
from pathlib import Path

import pytest
import yaml

from repeated_games.cli import main
from repeated_games.harness import (
    ConfigError,
    ScenarioConfig,
    run_scenario,
    sweep,
)

BASE = {
    "seed": 11,
    "game": {"kind": "coordination", "n": 3},
    "experts": {"actions": [0, 1, 2]},
    "learner": {"kind": "explore_then_commit", "T": 60},
    "partner": {"kind": "uniform"},
    "metric": {"kind": "value"},
    "estimation": {"trials": 30, "horizon": 400},
}


def _cfg(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return raw


def test_run_scenario_value_metric(tmp_path):
    report = run_scenario(_cfg(), tmp_path)
    assert report.passed
    assert 0.2 < report.results["tail_mean"] < 0.5
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "summary.csv").exists()
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header == "metric,estimate,ci,trials,horizon,seed"


def test_run_scenario_is_byte_identical(tmp_path):
    run_scenario(_cfg(), tmp_path / "a")
    run_scenario(_cfg(), tmp_path / "b")
    assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()
    assert (tmp_path / "a/summary.csv").read_bytes() == (tmp_path / "b/summary.csv").read_bytes()


def test_run_scenario_parallelism_equivalence(tmp_path):
    run_scenario(_cfg(), tmp_path / "p1", parallelism=1)
    run_scenario(_cfg(), tmp_path / "p8", parallelism=8)
    assert (tmp_path / "p1/report.json").read_bytes() == (tmp_path / "p8/report.json").read_bytes()


def test_run_scenario_unknown_kind_writes_nothing(tmp_path):
    out = tmp_path / "bad"
    with pytest.raises(ConfigError):
        run_scenario(_cfg(game={"kind": "nope"}), out)
    assert not out.exists()


def test_thresholds_pass_and_fail(tmp_path):
    passing = _cfg(thresholds=[{"field": "tail_mean", "min": 0.0, "max": 1.0}])
    assert run_scenario(passing, tmp_path / "ok").passed
    failing = _cfg(thresholds=[{"field": "tail_mean", "min": 0.99}])
    rep = run_scenario(failing, tmp_path / "fail")
    assert not rep.passed
    assert rep.thresholds[0]["passed"] is False


def test_threshold_unknown_field_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        run_scenario(_cfg(thresholds=[{"field": "no.such.field", "min": 0}]), tmp_path)


def test_simulate_metric_writes_trajectory(tmp_path):
    cfg = _cfg(metric={"kind": "simulate"}, estimation={"horizon": 50})
    report = run_scenario(cfg, tmp_path)
    lines = (tmp_path / "trajectory.jsonl").read_text().strip().splitlines()
    assert len(lines) == 50
    assert set(json.loads(lines[0])) == {"n", "a", "b", "u"}
    assert 0 <= report.results["mean_payoff"] <= 1


def test_bounds_metric(tmp_path):
    cfg = {"seed": 0, "game": {"kind": "coordination", "n": 5},
           "metric": {"kind": "bounds", "N": 5, "delta": 0.1}}
    report = run_scenario(cfg, tmp_path)
    assert report.results["theorem1_bound"] == "1/8"
    assert report.results["theorem1_bound_float"] == 0.125


def test_sweep_grid_and_csv(tmp_path):
    reports = sweep(ScenarioConfig(_cfg()), {"estimation.horizon": [200, 400],
                                             "seed": [1, 2]}, tmp_path)
    assert len(reports) == 4
    table = (tmp_path / "sweep.csv").read_text().splitlines()
    assert table[0].startswith("estimation.horizon,seed")
    assert len(table) == 5
    assert (tmp_path / "point_000" / "report.json").exists()


def test_sweep_empty_grid_is_single_run(tmp_path):
    reports = sweep(ScenarioConfig(_cfg()), {}, tmp_path)
    assert len(reports) == 1 and reports[0].passed


def test_sweep_records_per_point_failures(tmp_path):
    reports = sweep(ScenarioConfig(_cfg()), {"game.kind": ["coordination", "nope"]},
                    tmp_path)
    assert len(reports) == 2
    assert reports[0].passed and not reports[1].passed
    rows = (tmp_path / "sweep.csv").read_text()
    assert "nope" in rows and "error" in rows


# ---------------------------------------------------------------------------
# CLI exit-code contract
# ---------------------------------------------------------------------------


def _write_cfg(tmp_path, raw, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(raw))
    return p


def test_cli_success_exit_zero(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _cfg(metric={"kind": "adaptive_regret"}))
    rc = main(["regret", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_cli_threshold_failure_exit_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _cfg(thresholds=[{"field": "tail_mean", "min": 0.99}]))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    # simulate has no tail_mean field -> config error on threshold lookup
    assert rc == 2
    cfg2 = _write_cfg(tmp_path, _cfg(
        metric={"kind": "adaptive_regret"},
        thresholds=[{"field": "regret", "min": 0.99}],
    ), "cfg2.yaml")
    rc2 = main(["regret", "--config", str(cfg2), "--out", str(tmp_path / "out2")])
    assert rc2 == 1


def test_cli_config_error_exit_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _cfg(game={"kind": "nope"}, metric={"kind": "adaptive_regret"}))
    rc = main(["regret", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    capsys.readouterr()


def test_cli_regret_rejects_non_regret_metric(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _cfg())  # metric: {kind: value}
    out = tmp_path / "out"
    rc = main(["regret", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "'value'" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_missing_config_exit_two(tmp_path):
    rc = main(["regret", "--out", str(tmp_path)])
    assert rc == 2


def test_cli_bounds_exact(capsys):
    rc = main(["bounds", "--n", "5", "--delta", "0.1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma_star"] == "1/3"
    assert out["theorem1_bound_float"] == 0.125


def test_cli_bounds_invalid_n(capsys):
    rc = main(["bounds", "--n", "2", "--delta", "0.1"])
    assert rc == 2
    capsys.readouterr()


def test_cli_verify_unknown_suite(capsys):
    rc = main(["verify", "definitely-not-a-suite"])
    assert rc == 2
    capsys.readouterr()


def test_cli_verify_prop1(tmp_path, capsys):
    rc = main(["verify", "prop1-witness", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "verify.json").read_text())
    assert summary["passed"] is True
    capsys.readouterr()


def test_cli_fsm_value_and_rational(tmp_path, capsys):
    from repeated_games import machines as M
    from repeated_games.core import example1_game

    g = example1_game()
    (tmp_path / "game.json").write_text(g.to_json())
    fa1 = M.fsm_encode("fixed", action=0, n_opponent_actions=3)
    grim = M.fsm_encode("grim_trigger", expected_alice_action=0, cooperate_action=0,
                        punish_action=2, n_opponent_actions=2)
    b1 = M.fsm_encode("fixed", action=0, n_opponent_actions=2)
    (tmp_path / "a.json").write_text(fa1.to_json())
    (tmp_path / "grim.json").write_text(grim.to_json())
    (tmp_path / "b1.json").write_text(b1.to_json())

    rc = main(["fsm", "value", "--game", str(tmp_path / "game.json"),
               "--alice", str(tmp_path / "a.json"), "--bob", str(tmp_path / "grim.json")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] == "2"

    # a smaller machine achieves the same value: not rational, exit 1
    rc = main(["fsm", "rational", "--game", str(tmp_path / "game.json"),
               "--alice", str(tmp_path / "a.json"), "--bob", str(tmp_path / "grim.json"),
               "--candidates", str(tmp_path / "b1.json")])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_cli_sweep(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _cfg())
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
               "--grid", '{"estimation.horizon": [100, 200]}'])
    assert rc == 0
    assert (tmp_path / "sw" / "sweep.csv").exists()
    capsys.readouterr()


def test_cli_exploit_writes_audit(tmp_path, capsys):
    raw = {
        "seed": 5,
        "game": {"kind": "coordination", "n": 3},
        "experts": {"actions": [0, 1, 2]},
        "learner": {"kind": "strategic_experts", "epsilon": 0.2},
        "partner": {"kind": "predictive_exploiter", "delta": 0.05,
                    "oracle_trials": 12, "sigma_cap": 200},
        "metric": {"kind": "value"},
        "estimation": {"trials": 4, "horizon": 600, "tail_window": 150},
    }
    cfg = _write_cfg(tmp_path, raw)
    rc = main(["exploit", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    audit = (tmp_path / "out" / "audit.jsonl").read_text().strip().splitlines()
    recs = [json.loads(x) for x in audit]
    assert recs and sum(r["delta_i"] for r in recs) <= 0.05
    capsys.readouterr()


def test_cli_exploit_rejects_empty_oracle_budget(tmp_path, capsys):
    raw = _cfg(partner={"kind": "predictive_exploiter", "oracle_trials": 0})
    out = tmp_path / "out"
    rc = main(["exploit", "--config", str(_write_cfg(tmp_path, raw)), "--out", str(out)])
    assert rc == 2
    assert "oracle trials must be >= 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_rejects_empty_mixture(tmp_path, capsys):
    raw = _cfg(partner={"kind": "mixture", "components": []})
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(_write_cfg(tmp_path, raw)), "--out", str(out)])
    assert rc == 2
    assert "at least one member" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_rejects_empty_estimation_budgets(tmp_path, capsys):
    for est, message in (({"trials": 0}, "trials must be >= 1"),
                         ({"horizon": 0}, "horizon must be >= 1"),
                         ({"expert_trials": 0}, "expert_trials must be >= 1")):
        out = tmp_path / "out"
        raw = _cfg(estimation={"trials": 30, "horizon": 400, **est})
        rc = main(["simulate", "--config", str(_write_cfg(tmp_path, raw)), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()


def test_stationary_partner_config_is_checked(tmp_path, capsys):
    # one probability per column of the game
    with pytest.raises(ConfigError, match="4 probabilities for 3 actions"):
        run_scenario(_cfg(partner={"kind": "stationary", "probs": [0.25] * 4}), tmp_path)
    out = tmp_path / "out"
    raw = _cfg(partner={"kind": "stationary", "probs": [-1, 1, 1]})
    rc = main(["simulate", "--config", str(_write_cfg(tmp_path, raw)), "--out", str(out)])
    assert rc == 2
    assert "stationary probabilities must be" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_regret_csv_is_summary_head(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _cfg(metric={"kind": "adaptive_regret"}))
    out = tmp_path / "out"
    rc = main(["regret", "--config", str(cfg), "--out", str(out), "--format", "csv"])
    assert rc == 0
    printed = capsys.readouterr().out
    head = (out / "summary.csv").read_text().splitlines(keepends=True)[:2]
    assert printed == "".join(head)
    assert head[0] == "metric,estimate,ci,trials,horizon,seed\n"
    assert head[1].startswith("adaptive_regret,")


def test_summary_head_prints_resolved_defaults(tmp_path, capsys):
    raw = _cfg(estimation={"trials": 5})  # horizon left at its default
    run_scenario(raw, tmp_path / "value")
    head = (tmp_path / "value" / "summary.csv").read_text().splitlines()[1]
    assert head.startswith("value,") and head.split(",")[3:] == ["5", "10000", "11"]
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(_write_cfg(tmp_path, raw)), "--out", str(out),
               "--format", "csv"])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == (out / "summary.csv").read_text().splitlines()[:2]
    # one rollout: no trials, but the resolved horizon
    assert printed[1].split(",")[3:] == ["", "10000", "11"]


def test_summary_head_leaves_budgets_a_metric_ignores_empty(tmp_path):
    def head(name, **overrides):
        run_scenario(_cfg(**overrides), tmp_path / name)
        return (tmp_path / name / "summary.csv").read_text().splitlines()[1].split(",")

    # a closed-form table has neither trials nor a horizon
    row = head("bounds", metric={"kind": "bounds", "N": 3, "delta": 0.1})
    assert row[0] == "bounds" and row[3:] == ["", "", "11"]
    # external regret averages over its trajectories, not estimation.trials
    row = head("external", metric={"kind": "external_regret", "trajectories": 3},
               estimation={"trials": 5, "horizon": 40})
    assert row[0] == "external_regret" and row[3:] == ["3", "40", "11"]
    row = head("external-default", metric={"kind": "external_regret"},
               estimation={"trials": 5, "horizon": 20})
    assert row[3:] == ["50", "20", "11"]
