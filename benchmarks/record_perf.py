"""Record perfbench runs as a committed ``BENCH_*.json`` perf record.

Usage, from the root of a checkout::

    python3 benchmarks/record_perf.py OUT.json RUNS_DIR \\
        [--parent PARENT_DIR] [--parent-sha SHA]

``RUNS_DIR`` (and ``PARENT_DIR``) hold one file per run of
``python3 perfbench/run.py --workload W --seed S --seconds N``, named
``W.S.out`` and holding that run's standard output; only its last line,
perfbench's result object, is read.  For every workload and end-to-end
metric the record keeps the median, the interquartile range and the
sample count, with the runs' seeds and lengths.  With ``--parent``,
runs of the same workload and seed in the two directories form a pair:
the record adds the parent's medians,
the relative change of the medians and how many pairs moved in the
metric's better direction (taken from ``BENCHMARK.json``).  The record
also carries the host's ``cpu_count`` and names the code it measured:

* ``git_sha`` is the checkout's HEAD when the record is written.  A
  record written before its change is committed therefore names the
  change's parent commit, not the change;
* ``tree_dirty`` says whether tracked files differ from HEAD;
* ``diff_sha256`` is the sha256 of ``git diff HEAD --binary`` (null on a
  clean tree): HEAD plus that diff is the measured code.  Untracked
  files are not in the diff; ``git add`` them first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict:
    """``{workload: {seed: result}}`` from ``W.S.out`` files."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.out")):
        workload, seed = path.name[:-len(".out")].rsplit(".", 1)
        lines = path.read_text().strip().splitlines()
        if not lines:
            raise SystemExit(f"{path}: empty perfbench output")
        result = json.loads(lines[-1])
        # The line before carries the diagnostics, the run length too.
        if len(lines) > 1 and lines[-2].startswith("{"):
            result["seconds"] = json.loads(lines[-2]).get(
                "diagnostics", {}).get("seconds")
        runs[workload][int(seed)] = result
    return runs


def summary(values: list) -> dict:
    """Median, interquartile range and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1,
            "n": len(values)}


def metric_values(results: dict, name: str) -> dict:
    return {seed: result["metrics"][name]["value"]
            for seed, result in results.items()
            if name in result.get("metrics", {})}


def workload_record(results: dict, parent: dict | None,
                    better: dict) -> dict:
    names = sorted({name for result in results.values()
                    for name in result.get("metrics", {})})
    record = {
        "seeds": sorted(results),
        "seconds": sorted({r.get("seconds") for r in results.values()},
                          key=str),
        "correct": all(r.get("correct") for r in results.values()),
        "failed": sum(int(r.get("failed", 0)) for r in results.values()),
        "metrics": {},
    }
    for name in names:
        values = metric_values(results, name)
        entry = {"unit": next(iter(results.values()))["metrics"][name]
                 .get("unit"), **summary(list(values.values()))}
        if parent is not None:
            base = metric_values(parent, name)
            paired = sorted(set(values) & set(base))
            if paired:
                entry["parent"] = summary([base[s] for s in paired])
                median = entry["parent"]["median"]
                entry["change_pct"] = (
                    100.0 * (entry["median"] - median) / median
                    if median else None)
                sign = -1.0 if better.get(name) == "lower" else 1.0
                entry["pairs"] = len(paired)
                entry["pairs_better"] = sum(
                    sign * (values[s] - base[s]) > 0 for s in paired)
        record["metrics"][name] = entry
    return record


def git(*args: str) -> bytes:
    """The standard output of ``git args`` run in this checkout."""
    return subprocess.run(("git", "-C", str(ROOT)) + args,
                          capture_output=True, check=True).stdout


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("runs", type=Path)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--parent-sha")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    runs = load_runs(args.runs)
    parent = load_runs(args.parent) if args.parent else {}
    diff = git("diff", "HEAD", "--binary")
    record = {
        "git_sha": git("rev-parse", "HEAD").decode().strip(),
        "tree_dirty": bool(git("status", "--porcelain",
                               "--untracked-files=no").strip()),
        "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None,
        "parent_sha": args.parent_sha,
        "cpu_count": os.cpu_count(),
        "workloads": {
            workload: workload_record(results, parent.get(workload)
                                      if args.parent else None, better)
            for workload, results in sorted(runs.items())},
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
