"""The README's code runs as written."""

import re
from pathlib import Path

import yaml

from repeated_games.harness import run_scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_readme_python_blocks_run(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 2
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    regret, ci = (float(x) for x in printed[0].split(" +/- "))
    assert regret > 0.4 and ci > 0
    assert printed[1] == "2"


def test_readme_yaml_config_runs_and_threshold_resolves(tmp_path):
    (text,) = _blocks("yaml")
    raw = yaml.safe_load(text)
    # every section the example sets is one the harness reads
    assert raw["learner"]["T"] == 300
    raw["estimation"] = {"trials": 100, "horizon": 2000, "tail_window": 500,
                         "expert_trials": 10}
    report = run_scenario(raw, tmp_path)
    (threshold,) = report.thresholds
    assert threshold["field"] == "regret"
    assert threshold["value"] == report.results["regret"]
    assert threshold["passed"] and report.passed
