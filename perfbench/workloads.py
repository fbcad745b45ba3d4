"""The three benchmark workloads, built from the library's public entry points.

Each workload turns one instance seed into inputs (``build``, untimed set-up)
and then runs its pipeline as a sequence of top-level operations through
``Ops.call`` (``run``, timed). Every operation's output is checked against
the paper's claim for any seed; for the reference instance it is also
compared with the digest stored in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import yaml

from spans import Tracer


def instance_seed(seed: int, index: int, tag: str) -> int:
    """Seed of instance ``index`` of a run, independent of the library's own
    seed derivation so that library changes cannot change the inputs."""
    raw = f"perfbench|{tag}|{seed}|{index}".encode()
    return int.from_bytes(hashlib.sha256(raw).digest()[:4], "little")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class OpFailed(Exception):
    """An operation raised; the rest of the instance is skipped."""


class Ops:
    """Counts top-level operations and their failures for one run.

    An operation fails if it raises, or if its output check reports a
    problem, or if its digest differs from the stored reference.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict | None = None  # op key -> digest, when compared
        self.digests: dict[str, str] = {}  # op key -> digest, this instance
        self._index = 0

    def start_instance(self, reference: dict | None) -> None:
        self.reference = reference
        self.digests = {}
        self._index = 0

    def call(self, name: str, fn, *args, check=None, digest=None, **kwargs):
        key = f"{self._index:03d}:{name}"
        self._index += 1
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self._fail(key, f"raised {exc!r}")
            raise OpFailed(key) from exc
        try:
            problems = list(check(out)) if check is not None else []
            if digest is not None:
                self.digests[key] = digest(out)
                if self.reference is not None and self.reference.get(key) != self.digests[key]:
                    problems.append("output differs from the reference digest")
        except Exception as exc:  # a check that cannot read the output fails the op
            problems = [f"output check raised {exc!r}"]
        if problems:
            self._fail(key, "; ".join(problems))
        return out

    def _fail(self, key: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{key}: {why}")


class Workload:
    """A pipeline with its budget; subclasses add build, run and probes."""

    name = ""
    TRACED_INSTANCES = 3
    UNSPANNED_STAGES = 0  # budgeted stages no span records

    def __init__(self, lib, workdir):
        self.lib = lib
        self.workdir = workdir


# ---------------------------------------------------------------------------
# passive-switching: Theorem 2 on coordination_game(4), through the CLI
# ---------------------------------------------------------------------------


class PassiveSwitching(Workload):
    """Commit time of explore-then-commit against uniform play, then the
    ``regret`` subcommand against a switching partner at that commit time."""

    name = "passive-switching"
    N, T, DELTA = 4, 300, 0.05
    COMMIT = {"trials": 300, "horizon": 1500}
    REGRET = {"trials": 200, "horizon": 2000, "expert_trials": 40}
    PARALLELISM = 2
    TRACED_INSTANCES = 4

    def budget(self) -> dict:
        return {"game": f"coordination({self.N})", "learner_T": self.T, "delta": self.DELTA,
                "commit": self.COMMIT, "regret": self.REGRET,
                "parallelism": self.PARALLELISM}

    def stages(self) -> int:
        c, r = self.COMMIT, self.REGRET
        return (c["trials"] * c["horizon"]
                + (r["trials"] + self.N * r["expert_trials"]) * r["horizon"])

    def build(self, seed: int) -> dict:
        lib = self.lib
        game = lib.coordination_game(self.N)
        experts = lib.ExpertSet.fixed_actions(self.N)
        built = []

        def learner(s=None):
            m = lib.ExploreThenCommit(game, experts, self.T, s)
            built.append(m)
            return m

        def uniform(s=None):
            return lib.UniformPartner(self.N, s)

        out = self.workdir / f"{self.name}-{seed}"
        config = {
            "seed": seed,
            "game": {"kind": "coordination", "n": self.N},
            "experts": {"actions": list(range(self.N))},
            "learner": {"kind": "explore_then_commit", "T": self.T},
            "metric": {"kind": "adaptive_regret"},
            "estimation": dict(self.REGRET),
        }
        return {"seed": seed, "game": game, "learner": learner, "uniform": uniform,
                "built": built, "config": config, "out": out}

    def run(self, inp: dict, ops: Ops) -> None:
        lib = self.lib
        est = ops.call(
            "metrics.estimate_commit_time", lib.metrics.estimate_commit_time,
            inp["game"], inp["learner"], inp["uniform"], self.DELTA,
            trials=self.COMMIT["trials"], horizon=self.COMMIT["horizon"], seed=inp["seed"],
            check=lambda e: ["commit time is degenerate"] if e.degenerate else [],
            digest=lambda e: sha256_text(canonical(e.to_dict())),
        )
        # The commit trials' learners are ours: read where each one settled.
        counts = np.bincount([m.committed_expert for m in inp["built"]], minlength=self.N)
        target = int(np.argmin(counts))
        config = dict(inp["config"], partner={"kind": "switching", "tau": est.tau,
                                              "target": target})
        out = inp["out"]
        out.mkdir(parents=True, exist_ok=True)
        cfg_path = out / "scenario.yaml"
        cfg_path.write_text(yaml.safe_dump(config, sort_keys=True))
        emitted = io.StringIO()
        argv = ["regret", "--config", str(cfg_path), "--out", str(out / "run"),
                "--parallelism", str(self.PARALLELISM)]
        with redirect_stdout(emitted):
            ops.call("cli.main", lib.cli.main, argv,
                     check=lambda code: self._check_cli(code, out / "run", emitted),
                     digest=lambda code: _file_digest(out / "run" / "report.json"))

    def _check_cli(self, code, run_dir, emitted) -> list[str]:
        if code != 0:
            return [f"cli.main exited {code}"]
        text = (run_dir / "report.json").read_text()
        if emitted.getvalue() != text:
            return ["stdout differs from report.json"]
        res = json.loads(text)["results"]
        floor = 0.45 - 3 * res["ci_half_width"]
        if res["regret"] < floor:
            return [f"regret {res['regret']:.4f} below 0.45 - 3*CI = {floor:.4f}"]
        return []

    def probes(self) -> dict:
        lib = self.lib
        game = lib.coordination_game(self.N)
        experts = lib.ExpertSet.fixed_actions(self.N)
        spec = lib.SwitchingSpec(self.T + 1, 0, self.N)

        def etc(s):
            return lib.ExploreThenCommit(game, experts, self.T, s)

        m = {
            "core.pair.etc-uniform.stages_per_s": _pair_rate(
                lib, game, etc, lambda s: lib.UniformPartner(self.N, s), 200_000),
            "core.pair.etc-switching.stages_per_s": _pair_rate(
                lib, game, etc, lambda s: lib.SwitchingPartner(spec, s), 200_000),
        }
        # One learner-arm estimate at parallelism 1 and 2, alternated.
        times = {1: [], 2: []}
        for rep in range(3):
            for k in (1, 2) if rep % 2 == 0 else (2, 1):
                params = lib.EstimatorParams(trials=100, horizon=self.REGRET["horizon"],
                                             seed=rep, parallelism=k)
                t0 = time.perf_counter()
                lib.metrics.estimate_value(game, etc, lambda s: lib.SwitchingPartner(spec, s),
                                           None, params)
                times[k].append(time.perf_counter() - t0)
        m["metrics.estimate_value.parallel_speedup"] = (
            float(np.median(times[1])) / float(np.median(times[2])))
        return m


# ---------------------------------------------------------------------------
# active-exploiter: Theorem 1 on coordination_game(5), through run_scenario
# ---------------------------------------------------------------------------


class ActiveExploiter(Workload):
    """The composite adversary against the mixed ETC / strategic-experts
    learner, which takes the predictive-exploiter branch, then the adaptive
    regret against it."""

    name = "active-exploiter"
    N, DELTA, P, T, EPSILON = 5, 0.1, 0.5, 250, 0.2
    GAMMA = {"trials": 100, "horizon": 1200}
    ORACLE = {"trials": 24, "sigma_cap": 1500}
    # horizon - tail_window >= sigma_cap, so every certified first interval
    # ends before the tail window starts
    REGRET = {"trials": 8, "horizon": 2000, "tail_window": 500, "expert_trials": 1}
    # the gamma classification loop inside theorem1_adversary has no span
    UNSPANNED_STAGES = GAMMA["trials"] * GAMMA["horizon"]

    def budget(self) -> dict:
        return {"game": f"coordination({self.N})", "delta": self.DELTA, "p_active": self.P,
                "learner_T": self.T, "epsilon": self.EPSILON, "gamma": self.GAMMA,
                "oracle": self.ORACLE, "regret": self.REGRET, "parallelism": 1}

    def stages(self) -> int:
        g, r = self.GAMMA, self.REGRET
        # gamma classification + expert arms + learner arm + the audit rollout
        return (g["trials"] * g["horizon"]
                + (r["trials"] + self.N * r["expert_trials"]) * r["horizon"]
                + r["horizon"])

    def _active_count(self, seeds) -> int | None:
        lib = self.lib
        game = lib.coordination_game(self.N)
        experts = lib.ExpertSet.fixed_actions(self.N)
        active = 0
        for s in seeds:
            m = lib.MixedLearner(lib.ExploreThenCommit(game, experts, self.T),
                                 lib.StrategicExperts(game, experts, self.EPSILON),
                                 self.P, s)
            m.decide()
            chose = getattr(m, "chose_active", None)
            if chose is None:
                return None
            active += bool(chose)
        return active

    def _balanced_seed(self, seed: int, n: int, seeds_for) -> int:
        """First candidate seed whose ``n`` coin flips split exactly in half.

        The mixed learner flips one coin per trial (p = 0.5); fixing the
        split removes binomial noise from the amount of oracle work, so that
        run to run differences come from the code and not from the coins.
        """
        for k in range(1000):
            cand = instance_seed(seed, k, "balanced")
            count = self._active_count(seeds_for(cand))
            if count is None or 2 * count == n:
                return cand
        return instance_seed(seed, 0, "balanced")

    def build(self, seed: int) -> dict:
        lib = self.lib
        derive = lib.derive_trial_seed
        trials, pool = self.REGRET["trials"], self.ORACLE["trials"]
        cfg_seed = self._balanced_seed(
            seed, trials, lambda s: [derive(s, t, "learner") for t in range(trials)])
        oracle_seed = self._balanced_seed(
            seed + 1, pool, lambda s: [derive(s, j, "pool") for j in range(pool)])
        config = {
            "seed": cfg_seed,
            "game": {"kind": "coordination", "n": self.N},
            "experts": {"actions": list(range(self.N))},
            "learner": {"kind": "mixed", "p": self.P,
                        "passive": {"kind": "explore_then_commit", "T": self.T},
                        "active": {"kind": "strategic_experts", "epsilon": self.EPSILON}},
            "partner": {"kind": "theorem1_adversary", "delta": self.DELTA,
                        "gamma_trials": self.GAMMA["trials"],
                        "gamma_horizon": self.GAMMA["horizon"], "gamma_seed": cfg_seed,
                        "oracle_trials": pool, "sigma_cap": self.ORACLE["sigma_cap"],
                        "oracle_seed": oracle_seed},
            "metric": {"kind": "adaptive_regret"},
            "estimation": dict(self.REGRET),
            "output": {"audit": True},
        }
        return {"config": config, "out": self.workdir / f"{self.name}-{seed}"}

    def run(self, inp: dict, ops: Ops) -> None:
        out = inp["out"]
        ops.call("harness.run_scenario", self.lib.harness.run_scenario, inp["config"], out, 1,
                 check=lambda rep: self._check(rep, out),
                 digest=lambda rep: sha256_text(
                     _file_digest(out / "report.json") + _file_digest(out / "audit.jsonl")))

    def _check(self, report, out) -> list[str]:
        problems = []
        audit = out / "audit.jsonl"
        if not audit.exists():
            return ["no audit log: the adversary did not take the exploiter branch"]
        deltas = [json.loads(line)["delta_i"] for line in audit.read_text().splitlines()]
        if not deltas or sum(deltas) > self.DELTA or any(
                d != self.DELTA / 2.0 ** (i + 1) for i, d in enumerate(deltas)):
            problems.append(f"audit delta_i budget broken (sum {sum(deltas)})")
        res = report.results
        bound = float(self.lib.bound_table(self.N, self.DELTA).theorem1_bound)
        floor = bound - 3 * res["ci_half_width"]
        if res["regret"] < floor:
            problems.append(f"regret {res['regret']:.4f} below bound - 3*CI = {floor:.4f}")
        return problems

    def probes(self) -> dict:
        lib = self.lib
        game = lib.coordination_game(self.N)
        experts = lib.ExpertSet.fixed_actions(self.N)

        def mixed(s):
            s = s or 0
            return lib.MixedLearner(
                lib.ExploreThenCommit(game, experts, self.T, lib.derive_trial_seed(s, 0, "p")),
                lib.StrategicExperts(game, experts, self.EPSILON, None,
                                     lib.derive_trial_seed(s, 1, "a")),
                self.P, s)

        oracle = lib.OracleParams(trials=self.ORACLE["trials"],
                                  sigma_cap=self.ORACLE["sigma_cap"], seed=7)
        horizon, loop_s = self.REGRET["horizon"], 0.0
        tracer = Tracer(lib)
        tracer.install()
        try:
            for s in range(4):
                pi = mixed(100 + s)
                phi = lib.PredictiveExploiter(mixed, game, self.DELTA, oracle, s)
                first = len(tracer.spans)
                t0 = time.perf_counter()
                lib.core.simulate_payoffs(game, pi, phi, horizon)
                elapsed = time.perf_counter() - t0
                oracle_s = sum(sp[2] - sp[1] for sp in tracer.spans[first:]
                               if sp[0] == "partners.oracle")
                loop_s += elapsed - oracle_s
        finally:
            tracer.uninstall()
        return {"core.pair.mixed-exploiter.stages_per_s": 4 * horizon / loop_s}


# ---------------------------------------------------------------------------
# conditioned-checks: Proposition 2 / Corollary 1 / machine games on example1
# ---------------------------------------------------------------------------


class ConditionedChecks(Workload):
    """Flexibility and open-endedness over a partner zoo, the grim-trigger
    open-ended regret, and exact machine-game values with a Monte Carlo
    cross-check."""

    name = "conditioned-checks"
    EXPERTS = (0, 1)
    HISTORIES = {"count": 12, "max_len": 40}
    FLEX = {"trials": 20, "horizon": 500, "c": 2.0, "r": 0.5, "s_grid": (8, 16, 32, 64)}
    OPEN_ENDED = {"trials": 20, "horizon": 500, "tolerance": 0.05}
    GRIM = {"prefix_depth": 4, "horizon": 2000}
    FSM = {"alice": 4, "bob": 48, "states": (16, 128), "support": 3, "verdicts": 24,
           "crosscheck": 8, "horizon": 8000, "tail_window": 4000}

    def budget(self) -> dict:
        return {"game": "example1", "histories": self.HISTORIES, "flexibility": self.FLEX,
                "open_ended": self.OPEN_ENDED, "grim_open_ended_regret": self.GRIM,
                "fsm": self.FSM, "parallelism": 1}

    def stages(self) -> int:
        e, h = len(self.EXPERTS), self.HISTORIES["count"]
        f, o, g, m = self.FLEX, self.OPEN_ENDED, self.GRIM, self.FSM
        flex = e * (f["trials"] * f["horizon"] + h * sum(f["s_grid"]) * f["trials"])
        oe = e * h * o["trials"] * o["horizon"]
        prefixes = 2 ** (g["prefix_depth"] + 1) - 1
        grim = (e * prefixes + 1) * g["horizon"]
        return 6 * (flex + oe) + grim + m["crosscheck"] * m["horizon"]

    def build(self, seed: int) -> dict:
        lib = self.lib
        game = lib.example1_game()
        grim = lib.GrimTriggerSpec(0, 0, 2, 3)
        switching = lib.SwitchingSpec(50, 0, 3)
        zoo = {
            "grim_trigger": lambda s=None: lib.GrimTrigger(grim, s),
            "fictitious_play": lambda s=None: lib.FictitiousPlayPartner(game, s),
            "fixed": lambda s=None: lib.FixedAction(1, 3, s),
            "uniform": lambda s=None: lib.UniformPartner(3, s),
            "stationary": lambda s=None: lib.StationaryPartner([0.2, 0.5, 0.3], s),
            "switching": lambda s=None: lib.SwitchingPartner(switching, s),
        }
        rng = np.random.default_rng(seed)
        m = self.FSM
        alice = [_random_fsm(lib, rng, m["states"], 2, 3, f"alice-{i}")
                 for i in range(m["alice"])]
        bob = [_random_fsm(lib, rng, m["states"], 3, 2, f"bob-{j}") for j in range(m["bob"])]
        weights = rng.integers(1, 5, m["support"])
        belief = lib.Belief(tuple((alice[i], Fraction(int(w), int(weights.sum())))
                                  for i, w in enumerate(weights)))
        pairs = [(alice[int(rng.integers(len(alice)))], bob[int(rng.integers(len(bob)))])
                 for _ in range(m["crosscheck"])]
        return {"seed": seed, "game": game, "zoo": zoo, "bob": bob, "belief": belief,
                "pairs": pairs}

    def run(self, inp: dict, ops: Ops) -> None:
        lib, metrics, game, seed = self.lib, self.lib.metrics, inp["game"], inp["seed"]
        f, o = self.FLEX, self.OPEN_ENDED
        flex_params = lib.EstimatorParams(trials=f["trials"], horizon=f["horizon"], seed=seed)
        oe_params = lib.EstimatorParams(trials=o["trials"], horizon=o["horizon"], seed=seed)
        for name, factory in inp["zoo"].items():
            histories = ops.call(
                f"metrics.sample_histories[{name}]", metrics.sample_histories, game, factory,
                count=self.HISTORIES["count"], max_len=self.HISTORIES["max_len"], seed=seed,
                check=lambda hs: [] if len(hs) == self.HISTORIES["count"] else ["short"],
                digest=lambda hs: sha256_text(canonical([h.pairs() for h in hs])))
            flex = ops.call(
                f"metrics.check_flexibility[{name}]", metrics.check_flexibility, game, factory,
                self.EXPERTS, c=f["c"], r=f["r"], history_sampler=histories,
                s_grid=f["s_grid"], params=flex_params,
                digest=lambda rep: sha256_text(canonical(rep.to_dict())))
            ops.call(
                f"metrics.check_open_ended[{name}]", metrics.check_open_ended, game, factory,
                self.EXPERTS, history_sampler=histories, tolerance=o["tolerance"],
                params=oe_params,
                # Proposition 2: flexible implies open-ended.
                check=lambda rep, flexible=flex.passed: (
                    ["flexible but not open-ended"] if flexible and not rep.passed else []),
                digest=lambda rep: sha256_text(canonical(rep.to_dict())))

        g = self.GRIM
        ops.call(
            "metrics.open_ended_regret", metrics.open_ended_regret, game,
            lambda s=None: lib.FixedAction(0, 2, s), inp["zoo"]["grim_trigger"], self.EXPERTS,
            g["prefix_depth"], lib.EstimatorParams(trials=1, horizon=g["horizon"], seed=seed),
            check=lambda rep: [] if rep.regret == -1.0 else [f"grim regret {rep.regret} != -1"],
            digest=lambda rep: sha256_text(canonical(rep.to_dict())))

        bob, belief = inp["bob"], inp["belief"]
        for m_phi in bob[:self.FSM["verdicts"]]:
            ops.call(
                "machines.is_computationally_rational", lib.machines.is_computationally_rational,
                game, m_phi, belief, bob,
                check=lambda v, m_phi=m_phi: _check_verdict(v, m_phi, game),
                digest=lambda v: sha256_text(canonical(v.to_dict())))

        m = self.FSM
        params = lib.EstimatorParams(trials=1, horizon=m["horizon"],
                                     tail_window=m["tail_window"], seed=seed)
        for a_m, b_m in inp["pairs"]:
            exact = ops.call("machines.exact_value", lib.machines.exact_value, game, a_m, b_m,
                             digest=lambda v: str(v))
            ops.call(
                "metrics.estimate_value", metrics.estimate_value, game,
                lambda s=None, a_m=a_m: lib.FSMBehavioral(a_m, 2, "alice", s),
                lambda s=None, b_m=b_m: lib.FSMBehavioral(b_m, 3, "bob", s), None, params,
                check=lambda est, a_m=a_m, b_m=b_m, exact=exact: _check_crosscheck(
                    est, exact, a_m, b_m, game, m["horizon"], m["tail_window"]),
                digest=lambda est: sha256_text(canonical(est.to_dict())))

    def probes(self) -> dict:
        lib = self.lib
        game = lib.example1_game()
        rng = np.random.default_rng(5)
        a_m = _random_fsm(lib, rng, self.FSM["states"], 2, 3, "a")
        b_m = _random_fsm(lib, rng, self.FSM["states"], 3, 2, "b")
        return {
            "core.pair.fixed-stationary.stages_per_s": _pair_rate(
                lib, game, lambda s: lib.FixedAction(0, 2, s),
                lambda s: lib.StationaryPartner([0.2, 0.5, 0.3], s), 100_000),
            "core.pair.fixed-fictitious.stages_per_s": _pair_rate(
                lib, game, lambda s: lib.FixedAction(0, 2, s),
                lambda s: lib.FictitiousPlayPartner(game, s), 100_000),
            "core.pair.fsm-fsm.stages_per_s": _pair_rate(
                lib, game, lambda s: lib.FSMBehavioral(a_m, 2, "alice", s),
                lambda s: lib.FSMBehavioral(b_m, 3, "bob", s), 100_000),
        }


WORKLOADS = {w.name: w for w in (PassiveSwitching, ActiveExploiter, ConditionedChecks)}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pair_rate(lib, game, make_pi, make_phi, stages: int) -> float:
    """Median stages/s of ``simulate_payoffs`` over three fresh pairs."""
    rates = []
    for s in range(3):
        pi, phi = make_pi(s), make_phi(1000 + s)
        t0 = time.perf_counter()
        lib.core.simulate_payoffs(game, pi, phi, stages)
        rates.append(stages / (time.perf_counter() - t0))
    return float(np.median(rates))


def _random_fsm(lib, rng, states_range, n_out: int, n_obs: int, label: str):
    lo, hi = states_range
    k = int(rng.integers(lo, hi + 1))
    output = tuple(int(x) for x in rng.integers(0, n_out, k))
    transition = tuple(tuple(int(x) for x in rng.integers(0, k, n_obs)) for _ in range(k))
    return lib.FSMStrategy(k, 0, output, transition, label=label)


def _check_verdict(verdict, m_phi, game) -> list[str]:
    """Recompute the lexicographic verdict from the value table."""
    lo, hi = game.payoff_range
    problems = []
    dominated = False
    for label, value, size in verdict.value_table:
        if not lo <= value <= hi:
            problems.append(f"value {value} of {label} outside the payoff range")
        if label != m_phi.label and (
                value > verdict.value or (value == verdict.value and size < verdict.size)):
            dominated = True
    if verdict.passed == dominated:
        problems.append(f"verdict passed={verdict.passed} contradicts its value table")
    return problems


def _cycle(a_m, b_m) -> tuple[int, int]:
    """(transient length, cycle length) of the joint walk of two machines."""
    seen = {}
    sa, sb, n = a_m.initial, b_m.initial, 0
    while (sa, sb) not in seen:
        seen[(sa, sb)] = n
        a, b = a_m.output[sa], b_m.output[sb]
        sa, sb, n = a_m.transition[sa][b], b_m.transition[sb][a], n + 1
    return seen[(sa, sb)], n - seen[(sa, sb)]


def _check_crosscheck(est, exact, a_m, b_m, game, horizon, window) -> list[str]:
    """The tail mean of a window inside the periodic part differs from the
    cycle mean by at most (cycle length - 1) * payoff span / window."""
    transient, length = _cycle(a_m, b_m)
    if transient > horizon - window:
        return [f"transient {transient} reaches into the tail window"]
    lo, hi = game.payoff_range
    tol = (length - 1) * (hi - lo) / window + 1e-9
    gap = abs(est.tail_mean - float(exact))
    if gap > tol:
        return [f"tail mean {est.tail_mean} vs exact {exact}: gap {gap} > {tol}"]
    return []
