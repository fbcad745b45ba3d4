"""The library surface the benchmark in ``perfbench/`` relies on.

``perfbench/`` builds its workloads from the public API and instruments the
library from outside (``spans.Tracer`` patches module attributes and
``PredictiveExploiter._open_interval``, and reads ``audit_log`` and
``_steps_spent``). These tests run a tiny version of that use, so a change
that breaks the benchmark fails here first.
"""

import json
import sys
from pathlib import Path

import repeated_games as lib
import repeated_games.cli  # noqa: F401 - the tracer patches cli and harness
import repeated_games.harness  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_workload_builds_instance_zero(tmp_path):
    for name, cls in sorted(workloads.WORKLOADS.items()):
        workload = cls(lib, tmp_path)
        inp = workload.build(workloads.instance_seed(1, 0, name))
        assert isinstance(inp, dict) and inp, name


def test_reference_instance_of_every_workload_passes_its_checks(tmp_path):
    # what ``run.py --seed 1`` does first: any failed operation (it raised,
    # its output check failed, or its digest differs from reference.json)
    # makes the benchmark exit 1
    reference = json.loads(run.REFERENCE.read_text())
    for name, cls in sorted(workloads.WORKLOADS.items()):
        ops = workloads.Ops()
        run.run_instance(cls(lib, tmp_path), run.DEFAULT_SEED, 0, ops, [], reference[name])
        assert ops.failed == 0, (name, ops.failures)
        assert sorted(ops.digests) == sorted(reference[name]), name


def test_active_exploiter_balances_the_learner_coins(tmp_path):
    # the balanced seeds read MixedLearner.chose_active after the first decide
    workload = workloads.ActiveExploiter(lib, tmp_path)
    cfg_seed = workload.build(workloads.instance_seed(1, 0, workload.name))["config"]["seed"]
    trials = workload.REGRET["trials"]
    seeds = [lib.derive_trial_seed(cfg_seed, t, "learner") for t in range(trials)]
    assert 2 * workload._active_count(seeds) == trials


def _traced_theorem1_scenario(tmp_path, learner, oracle_trials):
    config = {
        "seed": 3,
        "game": {"kind": "coordination", "n": 5},
        "learner": learner,
        "partner": {"kind": "theorem1_adversary", "delta": 0.1, "gamma_trials": 20,
                    "gamma_horizon": 300, "oracle_trials": oracle_trials, "sigma_cap": 100},
        "metric": {"kind": "value"},
        "estimation": {"trials": 2, "horizon": 300},
        "output": {"audit": True},
    }
    tracer = spans.Tracer(lib)
    tracer.install()
    try:
        lib.harness.run_scenario(config, tmp_path, 1)
    finally:
        tracer.uninstall()
    audit = (tmp_path / "audit.jsonl").read_text().splitlines()
    assert audit and all("sigma_i" in json.loads(line) for line in audit)
    metrics = tracer.layer_metrics()
    assert metrics["partners.oracle.intervals"] > 0
    assert tracer.oracle_span_count() == metrics["partners.oracle.intervals"]
    assert metrics["partners.oracle.continuation_steps"] > 0
    assert metrics["partners.theorem1_adversary.s"] > 0
    return tracer


def test_traced_theorem1_scenario_audits_every_oracle_interval(tmp_path):
    _traced_theorem1_scenario(tmp_path, {"kind": "strategic_experts", "epsilon": 0.2}, 4)


def test_traced_oracle_scores_absorbed_pool_members(tmp_path):
    # half the pool is explore-then-commit: committed members leave the live
    # pool, and the oracle scores them without playing their continuations
    learner = {"kind": "mixed", "p": 0.5,
               "passive": {"kind": "explore_then_commit", "T": 10},
               "active": {"kind": "strategic_experts", "epsilon": 0.2}}
    tracer = _traced_theorem1_scenario(tmp_path, learner, 8)
    assert any(ex._settled for ex in tracer.exploiters)
