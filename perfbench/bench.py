"""Run one workload and print its metrics (see ``run.py``)."""

from __future__ import annotations

import argparse
import json
import shutil
import time
from pathlib import Path

from perfbench import layers, procs, stats
from perfbench.spans import SpanLog, install, load_spans
from perfbench.workloads import SETUPS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Every end-to-end metric: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "images_per_s": "img/s",
    "cpu_ms_per_image": "ms",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_us_per_image": "sim_us",
    "sim_uj_per_image": "sim_uJ",
    "paper_latency_err_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(argv) -> int:
    args = parse_args(argv)
    spans_dir = OUT_DIR / f"spans-{args.workload}"
    log = None
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        log = SpanLog(spans_dir)
        install(log)
    noise_start = procs.noise_floor()
    baseline = procs.Baseline.take()
    workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                        bool(args.trace), spans_dir)
    workload.make_inputs()

    setup_s, setup_windows = [], []
    try:
        for attempt in range(SETUPS):
            started = time.perf_counter()
            workload.setup()
            setup_windows.append((started, time.perf_counter()))
            setup_s.append(setup_windows[-1][1] - started)
            if attempt < SETUPS - 1:
                workload.teardown()
                procs.wait_for_children(baseline)
        pids = procs.program_pids()
        cpu_before = procs.cpu_snapshot(pids)
        started = time.perf_counter()
        workload.measure(args.seconds)
        window = (started, time.perf_counter())
        cpu_s = procs.cpu_used(cpu_before, pids)
        peak_rss = sum(procs.peak_rss_mb(pid) for pid in pids)
    finally:
        workload.teardown()
        procs.stop_resource_tracker()
    leaked = procs.leaks(baseline, workload.ports)
    workload.failures += [f"leaked {item}" for item in leaked]
    requeued = workload.extras["fabric"]["requeued"]
    if requeued:
        workload.failures.append(f"{requeued} work items were requeued "
                                 "off a crashed lane")
    if not workload.images_done:
        raise RuntimeError(f"no operation completed: {workload.failures}")
    checked = workload.verify()
    noise_end = procs.noise_floor()

    latency = workload.latency()
    sim = workload.sim_metrics()
    e2e = {
        "setup_s": stats.median(setup_s),
        "images_per_s": workload.throughput,
        "cpu_ms_per_image": cpu_s * 1e3 / workload.images_done,
        "p50_ms": latency["p50_ms"],
        "p95_ms": latency["p95_ms"],
        "peak_rss_mb": peak_rss,
        **{name: sim[name] for name in ("sim_us_per_image",
                                        "sim_uj_per_image",
                                        "paper_latency_err_pct")},
    }
    attempted = workload.attempted
    failed = min(len(workload.failures), attempted)
    diagnostics = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "noise_floor_s": {"start": noise_start, "end": noise_end},
        "setup_s_each": setup_s,
        "latency_ms": latency["samples"],
        "extras": {key: value for key, value in workload.extras.items()
                   if key in ("fabric", "cache", "saturation")},
        "paper_latency_signed_err_pct": sim["paper_latency_signed_err_pct"],
        "images_measured": workload.images_done,
        "outputs_checked": checked,
        "failures": workload.failures[:20],
        "end_to_end": e2e,
    }
    if args.trace:
        spans = log.spans() + load_spans(spans_dir)
        values = layers.per_layer(spans, workload, window, setup_windows)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
        diagnostics["self_time"] = layers.self_time_table(spans, window)
        diagnostics["tracing_overhead"] = _tracing_overhead(
            args.workload, e2e)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(diagnostics, indent=1))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _tracing_overhead(workload: str, traced: dict) -> dict:
    """Traced minus untraced value of each end-to-end metric, against
    the latest untraced run of the same workload in this checkout."""
    path = OUT_DIR / f"{workload}-trace0.json"
    if not path.exists():
        return {"untraced_run": None}
    untraced = json.loads(path.read_text())["end_to_end"]
    return {name: {"traced": traced[name], "untraced": untraced[name],
                   "delta": traced[name] - untraced[name]}
            for name in END_TO_END}
