"""Per-layer metrics from the traced run's spans and workload counters.

Each metric names the layer (module) whose public call its spans time;
a layer the workload bypasses reports 0 (for example the result cache
on the sweeps, or codec frames on shared-memory process lanes).
"""

from __future__ import annotations

from collections import defaultdict

from perfbench import stats
from perfbench.spans import self_times
from perfbench.workloads import SIM_LAYERS

ENGINE_CALLS = ("engine.run_merged", "engine.run_batch")
CHUNK_CALLS = ("runtime.collect_chunk", "runtime.execute_many",
               "runtime.execute")

#: Every per-layer metric, in report order: name -> unit.
PER_LAYER = {
    "engine.busy_ms_per_image": "ms",
    "engine.calls": "count",
    "engine.images_per_call": "img",
    "engine.input_density": "ratio",
    "engine.warm_ms": "ms",
    "engine.lookup_ms_per_call": "ms",
    "fabric.chunks": "count",
    "fabric.images_per_chunk": "img",
    "fabric.chunk_rtt_ms": "ms",
    "fabric.overhead_ms_per_chunk": "ms",
    "fabric.lane_busy_frac": "ratio",
    "fabric.stolen": "count",
    "fabric.requeued": "count",
    "codec.wire_bytes_per_image": "B/img",
    "codec.encode_us_per_frame": "us",
    "codec.decode_us_per_frame": "us",
    "sweep.units": "count",
    "sweep.driver_overhead_ms": "ms",
    "serve.server_ms_p50": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.service_ms_p50": "ms",
    "serve.batch_size_mean": "img",
    "serve.cache_hit_pct": "%",
    "serve.cache_evictions": "count",
    "transport.ms_p50": "ms",
    "loadgen.lag_p95_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.failed": "count",
}
for _layer in SIM_LAYERS:
    PER_LAYER[f"sim.{_layer}.cycles"] = "cycles"
    PER_LAYER[f"sim.{_layer}.adder_ops"] = "ops"


def _within(span, window) -> bool:
    return window[0] <= span.t0 and span.t1 <= window[1]


def _chunks(spans, window) -> list:
    """One record per dispatch chunk: the innermost of the nested
    execute / execute_many / collect_chunk calls that carried it."""
    by_key = {(s.pid, s.sid): s for s in spans}
    outer = set()
    for span in spans:
        if span.name not in CHUNK_CALLS:
            continue
        parent = by_key.get((span.pid, span.parent))
        while parent is not None:
            if parent.name in CHUNK_CALLS:
                outer.add((parent.pid, parent.sid))
            parent = by_key.get((parent.pid, parent.parent))
    return [s for s in spans if s.name in CHUNK_CALLS and s.attrs
            and _within(s, window) and (s.pid, s.sid) not in outer]


def fabric_metrics(spans, window, lanes: int) -> dict:
    chunks = _chunks(spans, window)
    rtts, overheads = [], []
    by_lane: dict = defaultdict(list)
    for chunk in chunks:
        by_lane[(chunk.pid, chunk.attrs["worker"])].append(chunk)
    for lane_chunks in by_lane.values():
        previous_end = float("-inf")
        for chunk in sorted(lane_chunks, key=lambda s: s.t1):
            sent = chunk.attrs.get("sent_at", chunk.t0)
            rtts.append(chunk.t1 - sent)
            # The lane cannot start this chunk before the previous one's
            # reply was read; time beyond that not spent computing is
            # the fabric's own.
            start = max(sent, previous_end)
            overheads.append(chunk.t1 - start - chunk.attrs["elapsed"])
            previous_end = chunk.t1
    images = sum(chunk.attrs["images"] for chunk in chunks)
    busy = sum(chunk.attrs["elapsed"] for chunk in chunks)
    wall = window[1] - window[0]
    return {
        "fabric.chunks": len(chunks),
        "fabric.images_per_chunk": images / len(chunks) if chunks else 0.0,
        "fabric.chunk_rtt_ms": stats.mean(rtts) * 1e3,
        "fabric.overhead_ms_per_chunk": stats.mean(overheads) * 1e3,
        "fabric.lane_busy_frac": busy / (lanes * wall) if wall else 0.0,
    }


def engine_metrics(spans, window, setup_windows) -> dict:
    names = {(s.pid, s.sid): s.name for s in spans}
    outer = [s for s in spans if s.name in ENGINE_CALLS
             and _within(s, window)
             and names.get((s.pid, s.parent)) not in ENGINE_CALLS]
    images = sum(s.attrs["images"] for s in outer)
    warm = [s for s in spans if s.name == "engine.warm_engine"]
    in_setup = [s.duration for s in warm
                if any(_within(s, w) for w in setup_windows)]
    lookups = [s.duration for s in warm if _within(s, window)]
    return {
        "engine.busy_ms_per_image": (sum(s.duration for s in outer) * 1e3
                                     / images if images else 0.0),
        "engine.calls": len(outer),
        "engine.images_per_call": images / len(outer) if outer else 0.0,
        "engine.input_density": (sum(s.attrs["density"] * s.attrs["images"]
                                     for s in outer) / images
                                 if images else 0.0),
        "engine.warm_ms": sum(in_setup) * 1e3 / len(setup_windows),
        "engine.lookup_ms_per_call": stats.mean(lookups) * 1e3,
    }


def codec_metrics(spans, window, images: int) -> dict:
    encodes = [s for s in spans if s.name == "codec.encode_frame"
               and _within(s, window)]
    decodes = [s for s in spans if s.name == "codec.decode_frame"
               and _within(s, window)]
    wire = sum(s.attrs["bytes"] for s in encodes if s.attrs)
    return {
        "codec.wire_bytes_per_image": wire / images if images else 0.0,
        "codec.encode_us_per_frame": stats.mean(
            s.duration for s in encodes) * 1e6,
        "codec.decode_us_per_frame": stats.mean(
            s.duration for s in decodes) * 1e6,
    }


def sweep_metrics(spans, window) -> dict:
    runs = [s for s in spans if s.name == "sweep.run" and _within(s, window)]
    inner: dict = defaultdict(float)
    for span in spans:
        if span.name == "runtime.group_run":
            inner[(span.pid, span.parent)] += span.duration
    return {
        "sweep.units": stats.mean(s.attrs["units"] for s in runs
                                  if s.attrs),
        "sweep.driver_overhead_ms": stats.mean(
            s.duration - inner[(s.pid, s.sid)] for s in runs) * 1e3,
    }


def serve_metrics(spans, window, extras: dict) -> dict:
    replies = extras.get("open_replies", [])
    open_window = extras.get("open_window", (0.0, 0.0))
    batches = [s for s in spans if s.name == "serve.pool_run_batch"
               and _within(s, window)]
    infers = [s for s in spans if s.name == "transport.infer"
              and _within(s, open_window) and s.attrs]
    cache = extras.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    loadgen = extras.get("loadgen", {})
    return {
        "serve.server_ms_p50": stats.median(
            float(r["latency_ms"]) for r in replies) if replies else 0.0,
        "serve.queue_wait_ms_p50": stats.median(
            float(r["queue_wait_ms"]) for r in replies) if replies else 0.0,
        "serve.service_ms_p50": (stats.median(s.duration for s in batches)
                                 * 1e3 if batches else 0.0),
        "serve.batch_size_mean": stats.mean(s.attrs["images"]
                                            for s in batches),
        "serve.cache_hit_pct": (100.0 * cache["hits"] / lookups
                                if lookups else 0.0),
        "serve.cache_evictions": cache.get("evictions", 0),
        "transport.ms_p50": (stats.median(
            s.duration * 1e3 - s.attrs["server_ms"] for s in infers)
            if infers else 0.0),
        "loadgen.lag_p95_ms": (stats.percentile(loadgen["lags_ms"], 95)[0]
                               if loadgen else 0.0),
        "loadgen.sent": loadgen.get("sent", 0),
        "loadgen.failed": loadgen.get("failed", 0),
    }


def sim_metrics(traces) -> dict:
    """Per-layer simulated cycles and adder ops, per image of the serial
    sample (0 for a layer the network does not have)."""
    cycles: dict = defaultdict(int)
    adds: dict = defaultdict(int)
    for trace in traces:
        for layer in trace.layers:
            cycles[layer.name] += layer.cycles + layer.dram_cycles
            adds[layer.name] += layer.adder_ops
    count = len(traces)
    found = {}
    for name in SIM_LAYERS:
        found[f"sim.{name}.cycles"] = cycles[name] / count
        found[f"sim.{name}.adder_ops"] = adds[name] / count
    return found


def per_layer(spans, workload, window, setup_windows) -> dict:
    extras = workload.extras
    found = {}
    found.update(engine_metrics(spans, window, setup_windows))
    found.update(fabric_metrics(spans, window, extras.get("lanes", 1)))
    fabric = extras.get("fabric", {})
    found["fabric.stolen"] = fabric.get("stolen", 0)
    found["fabric.requeued"] = fabric.get("requeued", 0)
    found.update(codec_metrics(spans, window, workload.images_done))
    found.update(sweep_metrics(spans, window))
    found.update(serve_metrics(spans, window, extras))
    found.update(sim_metrics(workload.layer_traces))
    return {name: found[name] for name in PER_LAYER}


def self_time_table(spans, window) -> dict:
    """Per span name inside the window: calls, total and self ms."""
    selves = self_times(spans)
    table: dict = {}
    for span in spans:
        if not _within(span, window):
            continue
        row = table.setdefault(span.name, {"calls": 0, "total_ms": 0.0,
                                           "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += span.duration * 1e3
        row["self_ms"] += selves[(span.pid, span.sid)] * 1e3
    return table
