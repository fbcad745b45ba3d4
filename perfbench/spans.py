"""In-memory span tracer that instruments the library from the outside.

The tracer swaps public module attributes of ``repeated_games`` (and the one
private hook, ``PredictiveExploiter._open_interval``) for timing wrappers
while it is installed, and restores them afterwards. Nothing under ``src/``
is edited. Entry points that take strategy factories get their factory
arguments wrapped too, so factory builds show up as their own spans.

A span is ``[name, start, end, parent, op, n]``: ``parent`` is the index of
the enclosing span (-1 at the top), ``op`` the id of the benchmark's
top-level operation, and ``n`` an optional count recorded at the boundary
(stages or trials requested).
"""

from __future__ import annotations

import inspect
import statistics
import threading
import time

_NAME, _START, _END, _PARENT, _OP, _N = range(6)


class Tracer:
    """Collects spans; ``install()`` patches the library, ``uninstall()`` undoes it."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self.op = 0
        self.exploiters: list = []
        self._lock = threading.Lock()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- span bookkeeping -----------------------------------------------------
    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, n=None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's first span belongs to whatever the main
            # thread is blocked in (the executor's caller).
            main = self._main_stack
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, n])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter()
        self._stack().pop()

    def timed(self, fn, name: str, count=None, factories=None):
        """Wrap ``fn`` in a span; ``count(bound_args)`` gives the span's n,
        ``factories`` maps parameter names to factory span names."""
        sig = inspect.signature(fn) if (count or factories) else None

        def wrapper(*args, **kwargs):
            n = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for param, label in (factories or {}).items():
                    bound.arguments[param] = self.factory(bound.arguments[param], label)
                if count is not None:
                    n = count(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            idx = self.begin(name, n)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    def factory(self, fn, label: str):
        """Wrap a strategy factory so every build is a ``label`` span."""
        if fn is None or getattr(fn, "_perfbench_label", None) is not None:
            return fn

        def build(*args, **kwargs):
            idx = self.begin(label)
            try:
                obj = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hasattr(obj, "audit_log"):
                self.exploiters.append(obj)
            return obj

        build._perfbench_label = label
        return build

    # -- patching -------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        lib = self.lib
        metrics, partners = lib.metrics, lib.partners
        machines, harness, cli = lib.machines, lib.harness, lib.cli
        learner_partner = {"learner_factory": "learners.factory",
                           "phi_factory": "partners.factory"}

        self._patch(metrics, "simulate_payoffs",
                    self._fast_simulate(metrics.simulate_payoffs))
        self._patch(harness, "rollout",
                    self.timed(harness.rollout, "core.rollout",
                               count=lambda a: a["horizon"]))
        self._patch(metrics, "estimate_value", self.timed(
            metrics.estimate_value, "metrics.estimate_value",
            count=lambda a: a["params"].trials,
            factories={"pi_factory": "learners.factory", "phi_factory": "partners.factory"}))
        self._patch(metrics, "estimate_commit_time", self.timed(
            metrics.estimate_commit_time, "metrics.estimate_commit_time",
            count=lambda a: a["trials"] * a["horizon"], factories=learner_partner))
        for name in ("adaptive_regret", "open_ended_regret"):
            self._patch(metrics, name, self.timed(
                getattr(metrics, name), f"metrics.{name}", factories=learner_partner))
        for name in ("check_flexibility", "check_open_ended", "sample_histories"):
            self._patch(metrics, name, self.timed(
                getattr(metrics, name), f"metrics.{name}",
                factories={"phi_factory": "partners.factory"}))
        self._patch(partners, "theorem1_adversary",
                    self._theorem1(partners.theorem1_adversary))
        self._patch(partners.PredictiveExploiter, "_open_interval", self.timed(
            partners.PredictiveExploiter._open_interval, "partners.oracle"))
        self._patch(machines, "exact_value",
                    self.timed(machines.exact_value, "machines.exact_value"))
        self._patch(machines, "is_computationally_rational", self.timed(
            machines.is_computationally_rational, "machines.is_computationally_rational"))
        run_scenario = self.timed(harness.run_scenario, "harness.run_scenario")
        for owner in (harness, cli):
            self._patch(owner, "run_scenario", run_scenario)
        self._patch(cli, "main", self.timed(cli.main, "cli.main"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _fast_simulate(self, fn):
        # simulate_payoffs is called tens of thousands of times per run:
        # skip signature binding on the common positional call.
        def wrapper(game, pi, phi, horizon):
            idx = self.begin("core.simulate_payoffs", horizon)
            try:
                return fn(game, pi, phi, horizon)
            finally:
                self.end(idx)

        return wrapper

    def _theorem1(self, fn):
        inner = self.timed(fn, "partners.theorem1_adversary",
                           factories={"learner_factory": "learners.factory"})

        def wrapper(*args, **kwargs):
            strategy, info = inner(*args, **kwargs)
            info["factory"] = self.factory(info["factory"], "partners.factory")
            return strategy, info

        return wrapper

    # -- aggregation ----------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer totals over every span recorded so far."""
        spans = self.spans
        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s[_PARENT] >= 0:
                children.setdefault(s[_PARENT], []).append(i)

        def dur(i):
            return spans[i][_END] - spans[i][_START]

        def covered(i, only=None):
            lo, hi = spans[i][_START], spans[i][_END]
            ivals = sorted(
                (max(lo, spans[c][_START]), min(hi, spans[c][_END]))
                for c in children.get(i, ())
                if only is None or spans[c][_NAME] == only
            )
            total, cur_lo, cur_hi = 0.0, None, None
            for a, b in ivals:
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        total += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                total += cur_hi - cur_lo
            return total

        def outermost(i):
            name, p = spans[i][_NAME], spans[i][_PARENT]
            while p >= 0:
                if spans[p][_NAME] == name:
                    return False
                p = spans[p][_PARENT]
            return True

        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[_NAME], []).append(i)

        def ids(name):
            return by_name.get(name, [])

        def total(name):
            return sum(dur(i) for i in ids(name) if outermost(i))

        def self_time(name):
            return sum(dur(i) - covered(i) for i in ids(name))

        count_n = self.count_n

        def rate(num, den):
            return num / den if den > 0 else 0.0

        m = {}
        sim_stages = count_n("core.simulate_payoffs")
        sim_self = self_time("core.simulate_payoffs")
        m["core.simulate_payoffs.calls"] = len(ids("core.simulate_payoffs"))
        m["core.simulate_payoffs.stages"] = sim_stages
        m["core.simulate_payoffs.self_s"] = sim_self
        m["core.simulate_payoffs.stages_per_s"] = rate(sim_stages, sim_self)
        m["core.rollout.s"] = total("core.rollout")

        commit_self = self_time("metrics.estimate_commit_time")
        m["metrics.estimate_commit_time.stages_per_s"] = rate(
            count_n("metrics.estimate_commit_time"), commit_self)

        ev = ids("metrics.estimate_value")
        ev_self = self_time("metrics.estimate_value")
        ev_loop = sum(covered(i, "core.simulate_payoffs") for i in ev)
        m["metrics.estimate_value.calls"] = len(ev)
        m["metrics.estimate_value.trials"] = count_n("metrics.estimate_value")
        m["metrics.estimate_value.self_s"] = ev_self
        m["metrics.estimate_value.overhead_frac"] = rate(ev_self, ev_self + ev_loop)
        m["metrics.check_flexibility.self_s"] = self_time("metrics.check_flexibility")
        for name in ("adaptive_regret", "open_ended_regret", "check_open_ended",
                     "sample_histories"):
            m[f"metrics.{name}.s"] = total(f"metrics.{name}")

        for layer in ("learners", "partners"):
            name = f"{layer}.factory"
            m[f"{name}.calls"] = sum(1 for i in ids(name) if outermost(i))
            m[f"{name}.s"] = total(name)

        oracle = [dur(i) for i in ids("partners.oracle")]
        records = [rec for ex in self.exploiters for rec in ex.audit_log]
        steps = sum(ex._steps_spent for ex in self.exploiters)
        oracle_self = self_time("partners.oracle")
        m["partners.oracle.intervals"] = len(records)
        m["partners.oracle.continuation_steps"] = steps
        m["partners.oracle.self_s"] = oracle_self
        m["partners.oracle.interval_p50_ms"] = (
            statistics.median(oracle) * 1e3 if oracle else 0.0)
        m["partners.oracle.interval_p90_ms"] = (
            statistics.quantiles(oracle, n=10)[-1] * 1e3 if len(oracle) > 1 else 0.0)
        m["partners.oracle.steps_per_s"] = rate(steps, oracle_self)
        m["partners.oracle.certified_frac"] = rate(
            sum(1 for rec in records if not rec["capped"]), len(records))
        m["partners.theorem1_adversary.s"] = total("partners.theorem1_adversary")

        ex_calls = len(ids("machines.exact_value"))
        ex_s = total("machines.exact_value")
        m["machines.exact_value.calls"] = ex_calls
        m["machines.exact_value.s"] = ex_s
        m["machines.exact_value.calls_per_s"] = rate(ex_calls, ex_s)
        m["machines.is_computationally_rational.self_s"] = self_time(
            "machines.is_computationally_rational")

        m["harness.run_scenario.self_s"] = self_time("harness.run_scenario")
        m["cli.main.self_s"] = self_time("cli.main")
        return m

    def count_n(self, name: str) -> int:
        """Sum of the counts recorded on ``name`` spans."""
        return sum(s[_N] or 0 for s in self.spans if s[_NAME] == name)

    def oracle_span_count(self) -> int:
        return sum(1 for s in self.spans if s[_NAME] == "partners.oracle")

    def write(self, path) -> None:
        """Write every span as one JSON array per line, times in microseconds
        from the first span."""
        import gzip
        import json

        t0 = self.spans[0][_START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[_NAME], round((s[_START] - t0) * 1e6, 1),
                                     round((s[_END] - t0) * 1e6, 1), s[_PARENT],
                                     s[_OP], s[_N]]) + "\n")

