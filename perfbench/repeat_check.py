"""Exact-repeat check for the traced run's counters.

    python3 perfbench/repeat_check.py [--seed N] [WORKLOAD ...]

Makes two traced runs of each workload with one seed and asserts that every
count metric (unit ``count`` or ``bytes``) is identical between them, and
that the number of ``partners.oracle`` spans in the written trace equals
``partners.oracle.intervals``. Count-based claims in later changes rest on
this. Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import gzip
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int) -> tuple[dict, int]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spans = OUT / f"{workload}-seed{seed}-trace1.spans.jsonl.gz"
    with gzip.open(spans, "rt") as fh:
        oracle_spans = sum(1 for line in fh if json.loads(line)[0] == "partners.oracle")
    return result["metrics"], oracle_spans


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = p.parse_args(argv)
    ok = True
    for workload in args.workloads:
        (first, spans1), (second, spans2) = (traced_run(workload, args.seed),
                                             traced_run(workload, args.seed))
        counts = sorted(k for k, m in first.items() if m["unit"] in ("count", "bytes"))
        differ = [k for k in counts if first[k]["value"] != second[k]["value"]]
        intervals = first["partners.oracle.intervals"]["value"]
        for k in differ:
            print(f"{workload}: {k} {first[k]['value']} != {second[k]['value']}")
        if spans1 != intervals or spans2 != intervals:
            print(f"{workload}: oracle spans {spans1}/{spans2} != intervals {intervals}")
        good = not differ and spans1 == spans2 == intervals
        ok = ok and good
        print(f"{workload}: {len(counts)} counts {'identical' if good else 'DIFFER'}, "
              f"oracle spans = intervals = {intervals}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
