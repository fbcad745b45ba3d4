"""Benchmark driver: one workload, one seed, one run.

    python3 perfbench/run.py --workload passive-switching --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``): repeats the workload on fresh instances of the
seed for ``--seconds`` and reports the end-to-end metrics. Traced
(``--trace 1``): runs a fixed number of instances once untraced and once
with the span tracer installed, and reports the per-layer metrics. The last
line of standard output is the result object; the lines before it list every
metric with its unit and the run record. Exit status is 1 when an output
check failed, 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, OpFailed, Ops, instance_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
MIN_REPS = 3
IMPORT_SAMPLES = 5
IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import repeated_games, repeated_games.harness, repeated_games.cli; "
    "print(time.perf_counter() - t)"
)
# probe metrics a workload reports only for the pairs it uses; 0 elsewhere
PAIR_METRICS = [f"core.pair.{p}.stages_per_s" for p in (
    "etc-uniform", "etc-switching", "mixed-exploiter", "fixed-stationary",
    "fixed-fictitious", "fsm-fsm")] + ["metrics.estimate_value.parallel_speedup"]


def declared_units(traced: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store the digests of the default seed's first instance")
    return p.parse_args(argv)


def load_library():
    """Import the library from the checkout's ``src``; None if it is absent."""
    if not (SRC / "repeated_games" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import repeated_games
    import repeated_games.cli
    import repeated_games.harness  # noqa: F401 - loaded for the tracer's patches

    return repeated_games


def import_seconds() -> float:
    """Median import time of the library in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_record(lib, workload, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "workload": workload.name, "seed": args.seed, "traced": bool(args.trace),
        "seconds": args.seconds, "budget": workload.budget(),
        "stages_per_instance": workload.stages(), "nproc": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
        "library_version": lib.__version__,
    }


def run_instance(workload, seed: int, index: int, ops, builds: list, reference=None):
    """Build instance ``index`` (untimed), run it (timed); returns (wall, inputs)."""
    t0 = time.perf_counter()
    inp = workload.build(instance_seed(seed, index, workload.name))
    builds.append(time.perf_counter() - t0)
    ops.start_instance(reference)
    gc.collect()  # every instance starts from the same heap state
    t0 = time.perf_counter()
    try:
        workload.run(inp, ops)
    except OpFailed:
        pass
    return time.perf_counter() - t0, inp


def clean(inp) -> None:
    out = inp.get("out")
    if out is not None:
        shutil.rmtree(out, ignore_errors=True)


def reference_for(workload, args, index: int):
    if args.seed != DEFAULT_SEED or index != 0 or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload.name)


def measure_untraced(workload, args, ops, builds) -> dict:
    walls = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < MIN_REPS or time.perf_counter() < deadline:
        wall, inp = run_instance(workload, args.seed, index, ops, builds,
                                 reference_for(workload, args, index))
        clean(inp)
        walls.append(wall)
        index += 1
    wall = statistics.median(walls)
    return {"wall_s": wall, "stages_per_s": workload.stages() / wall}, walls


def measure_traced(workload, args, ops, builds, tracer) -> tuple[dict, dict]:
    """Each instance runs once untraced and once traced, in alternating
    order; the pair probes run first and double as a warm-up."""
    metrics = dict.fromkeys(PAIR_METRICS, 0.0)
    metrics.update(workload.probes())
    walls = {"untraced": [], "traced": []}
    report_bytes = 0
    for index in range(workload.TRACED_INSTANCES):
        ref = reference_for(workload, args, index)
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                wall, inp = run_instance(workload, args.seed, index, ops, builds, ref)
            finally:
                tracer.uninstall()
            out = inp.get("out")
            if traced and out is not None:
                report_bytes += sum(p.stat().st_size for p in out.rglob("report.json"))
            clean(inp)
            walls["traced" if traced else "untraced"].append(wall)
    metrics.update(tracer.layer_metrics())
    metrics["harness.report_bytes"] = report_bytes
    metrics["trace.overhead_frac"] = sum(walls["traced"]) / sum(walls["untraced"]) - 1.0

    # The spans must account for every stage the budget asks for, and the
    # oracle hook must fire once per audited interval.
    spanned = (tracer.count_n("core.simulate_payoffs") + tracer.count_n("core.rollout")
               + tracer.count_n("metrics.estimate_commit_time")
               + workload.TRACED_INSTANCES * workload.UNSPANNED_STAGES)
    problems = []
    if spanned != workload.TRACED_INSTANCES * workload.stages():
        problems.append(f"spanned stages {spanned} != budget "
                        f"{workload.TRACED_INSTANCES * workload.stages()}")
    if tracer.oracle_span_count() != metrics["partners.oracle.intervals"]:
        problems.append(f"{tracer.oracle_span_count()} oracle spans != "
                        f"{metrics['partners.oracle.intervals']} audited intervals")
    ops.attempted += 1
    if problems:
        ops.failed += 1
        ops.failures.extend(f"trace.consistency: {p}" for p in problems)
    return metrics, walls


def write_reference(workload) -> int:
    ops = Ops()
    _, inp = run_instance(workload, DEFAULT_SEED, 0, ops, [])
    clean(inp)
    if ops.failed:
        print("\n".join(ops.failures), file=sys.stderr)
        return 1
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    stored[workload.name] = ops.digests
    REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(ops.digests)} digests for {workload.name}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = load_library()
    if lib is None:
        print(f"error: the repeated_games package is not under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](lib, OUT)
    if args.write_reference:
        return write_reference(workload)

    import_s = import_seconds()
    builds: list[float] = []
    for index in range(MIN_REPS):  # set-up measured on its own, several times
        t = time.perf_counter()
        workload.build(instance_seed(args.seed, index, workload.name))
        builds.append(time.perf_counter() - t)

    if args.trace:
        tracer = Tracer(lib)
        ops = Ops(tracer)
        metrics, walls = measure_traced(workload, args, ops, builds, tracer)
        metrics["setup.import_s"] = import_s
        metrics["setup.build_s"] = statistics.median(builds)
    else:
        ops = Ops()
        metrics, walls = measure_untraced(workload, args, ops, builds)
        metrics["setup_s"] = import_s + statistics.median(builds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = run_record(lib, workload, args)
    record["walls_s"] = walls
    record["import_s"] = import_s
    record["builds_s"] = builds
    record["ops_failed_frac"] = ops.failed / ops.attempted
    record["failures"] = ops.failures[:20]
    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} differ from "
                           "the ones BENCHMARK.json declares")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"run": record, **result}, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")

    for failure in ops.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{workload.name} {k} {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} ops_failed_frac {record['ops_failed_frac']:.6g} ratio "
          f"({ops.failed}/{ops.attempted})")
    print("run " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
