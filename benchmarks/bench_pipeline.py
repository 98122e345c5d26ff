"""Pipelined fabric benchmark — in-flight windows and the result cache.

The pipelining PR's three claims, measured and gated:

* **Windowed remote lane** — with real wire latency between the driver
  and a ``WorkerServer`` (injected here by an in-bench TCP relay that
  sleeps before forwarding each burst), a lane windowed by the dispatch
  credit (capped at the remote depth of 8) must clear the same work
  list >= 1.3x faster than stop-and-wait: chunk N+1 is encoded and on
  the wire while chunk N computes remotely, so the per-chunk RTT stops
  serializing the lane.
* **Pipelined process sweep** — the sweep fabric's dispatch engine
  (the same ``WorkerGroup`` that ``repro sweep`` constructs), draining
  event-frame shards on the sparse backend with one shard per chunk
  and process lanes sized to leave the driver its own core (every
  other core runs a lane — the saturated PR 9 configuration), must
  clear the work list >= 1.15x faster with credit-windowed,
  double-buffered lanes (depth 2) than under PR 9's stop-and-wait
  dispatch.  Warmed groups and
  best-of-N drains look through cgroup CPU throttling — forked-lane
  wall clocks are the noisiest numbers in the suite — and each gate
  re-measures up to 3 times before its verdict sticks (a real
  regression fails every attempt; a noisy neighbour usually one).
* **Result-cache serving** — a duplicate-heavy serving load must clear
  its repeated requests >= 5x faster than the cold pass: cache hits
  replay the stored logits+trace at admission without touching a lane.

Each stop-and-wait baseline is the same group with its lanes'
``pipeline_depth`` set to 1, which caps the credit at one chunk.
Bit-equality rides along with every measurement: windowed merges match
a serial thread-lane baseline, and cache hits replay the cold results
verbatim.  Results land in ``artifacts/bench_pipeline.json``.
"""

import os

# Pin BLAS to one thread per process *before* numpy initializes: the
# pipelining claims are about overlap in the dispatch path, not an
# OpenBLAS thread-pool lottery.  Under pytest numpy is already loaded;
# ci.yml sets the same.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import asyncio
import itertools
import socket
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import AcceleratorConfig
from repro.core.engine.calibrate import probe_batch
from repro.harness import Table
from repro.models import performance_network
from repro.runtime import (
    Deployment,
    ProcessWorker,
    RemoteWorker,
    ThreadWorker,
    WorkItem,
    WorkerGroup,
    WorkerServer,
    create_workers,
)
from repro.serve import InferenceServer

from benchmarks.conftest import (
    FAST_MODE,
    multicore,
    print_table,
    skip_unless_multicore,
    write_artifact,
)

RESULTS_PATH = (Path(__file__).resolve().parent.parent
                / "artifacts" / "bench_pipeline.json")

#: One-way injected wire latency per direction; every request and reply
#: burst pays it, so stop-and-wait pays a full RTT per chunk.
WIRE_LATENCY_S = 0.010 if FAST_MODE else 0.020
REMOTE_ITEMS = 8 if FAST_MODE else 12
REMOTE_BATCH = 4
REMOTE_GATE = 1.3

#: Sweep workload: mostly-silent event frames on the sparse backend —
#: per-image compute is tiny, so the per-chunk dispatch turnaround
#: (pack, queue, wake, reply decode) is a real fraction of each chunk.
SWEEP_UNITS = 32 if FAST_MODE else 48
SWEEP_SHARD = 4
SWEEP_SILENT_FRAC = 0.75
SWEEP_DENSITY = 0.03
#: Best-of-N drains per dispatch config: the un-throttled drain is the
#: one comparable across configs on a cgroup-throttled host.
SWEEP_ROUNDS = 3 if FAST_MODE else 4
#: Saturated: every core beyond the driver's runs a process lane (the
#: issue's 2-lane shape on >= 3 cores; 1 lane + driver on 2).
SWEEP_LANES = max(1, min(2, (os.cpu_count() or 1) - 1))
SWEEP_GATE = 1.15

CACHE_REQUESTS = 16 if FAST_MODE else 48
CACHE_GATE = 5.0

#: Re-measures allowed per gate before its verdict sticks.
MEASURE_ATTEMPTS = 3


class LatencyRelay:
    """In-bench TCP relay adding one-way latency in each direction.

    Listens on an ephemeral port, forwards every connection to
    ``upstream_port``, and sleeps ``latency_s`` before relaying each
    received burst — a stop-and-wait exchange pays the full RTT per
    chunk while pipelined frames coalesce into shared bursts, exactly
    the wire behaviour windowed dispatch exists to hide.
    """

    def __init__(self, upstream_port: int, latency_s: float) -> None:
        self.upstream_port = upstream_port
        self.latency_s = latency_s
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            upstream = socket.create_connection(
                ("127.0.0.1", self.upstream_port))
            for src, dst in ((client, upstream), (upstream, client)):
                threading.Thread(target=self._pump, args=(src, dst),
                                 daemon=True).start()

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                data = src.recv(1 << 20)
                if not data:
                    break
                time.sleep(self.latency_s)
                dst.sendall(data)
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


def _deployment(rng) -> Deployment:
    network = performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 10)],
        input_shape=(1, 12, 12), num_steps=3,
        seed=int(rng.integers(1 << 16)))
    return Deployment(network=network,
                      config=AcceleratorConfig.for_network(network))


def _one_in_flight(workers: list, stop_and_wait: bool) -> list:
    """The lanes, capped at one chunk in flight when asked."""
    if stop_and_wait:
        for worker in workers:
            worker.pipeline_depth = 1
    return workers


def run_remote_pipelining(rng) -> dict:
    """Gate 1: credit-windowed remote lane vs stop-and-wait under
    latency."""
    deployment = _deployment(rng)
    shape = deployment.network.input_shape
    items = [WorkItem(i, 0, rng.random((REMOTE_BATCH,) + shape))
             for i in range(REMOTE_ITEMS)]
    warmup = [WorkItem(900 + i, 0, rng.random((REMOTE_BATCH,) + shape))
              for i in range(2)]

    # Serial thread-lane ground truth every dispatch config must
    # reproduce.
    with WorkerGroup([ThreadWorker()], deployments=[deployment]) as group:
        baseline = group.run(items)

    walls, pipelined = {}, {}
    with WorkerServer() as server:
        relay = LatencyRelay(server.port, WIRE_LATENCY_S)
        try:
            for stop_and_wait in (True, False):
                worker = RemoteWorker(
                    "127.0.0.1", relay.port,
                    name="wire-w1" if stop_and_wait else "wire-credit")
                group = WorkerGroup(
                    _one_in_flight([worker], stop_and_wait),
                    deployments=[deployment], max_batch_items=1,
                    heartbeat_s=30.0)
                with group:
                    # Connect, deploy and the first service-time
                    # sample (the credit starts stop-and-wait) stay off
                    # the timed path.
                    group.run(warmup)
                    started = time.perf_counter()
                    futures = group.submit_many(items)
                    results = [future.result() for future in futures]
                    walls[stop_and_wait] = time.perf_counter() - started
                    pipelined[stop_and_wait] = group.metrics.pipelined
                for base, result in zip(baseline, results):
                    np.testing.assert_array_equal(base.logits,
                                                  result.logits)
                    assert base.merged_trace() == result.merged_trace()
        finally:
            relay.close()

    return {
        "items": REMOTE_ITEMS,
        "item_batch": REMOTE_BATCH,
        "wire_latency_ms": WIRE_LATENCY_S * 1e3,
        "window_cap": RemoteWorker.pipeline_depth,
        "wall_stop_and_wait_s": walls[True],
        "wall_windowed_s": walls[False],
        "speedup": walls[True] / walls[False],
        "chunks_pipelined": pipelined[False],
        "bit_identical": True,
    }


def run_sweep_pipelining(rng) -> dict:
    """Gate 2: credit-windowed process lanes vs PR 9 stop-and-wait.

    Drives the sweep fabric's dispatch engine the way ``repro sweep``
    constructs it: one event-frame shard per chunk on the
    sparse backend, process lanes on every core beyond the driver's.
    Lanes are warmed (fork, deploy, first-touch arenas) before timing
    and each config keeps its best of ``SWEEP_ROUNDS`` drains.
    """
    network = performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 10)],
        input_shape=(1, 16, 16), num_steps=3,
        seed=int(rng.integers(1 << 16)))
    deployment = Deployment(
        network=network, config=AcceleratorConfig.for_network(network),
        backend="sparse")
    shards = [probe_batch(network.input_shape, SWEEP_DENSITY,
                          SWEEP_SHARD, rng,
                          silent_frac=SWEEP_SILENT_FRAC)
              for _ in range(SWEEP_UNITS)]
    ids = itertools.count()

    def make_items() -> list:
        # Fresh ids per drain: the group's exactly-once done-set would
        # replay a repeated id instead of executing it.
        return [WorkItem(next(ids), 0, images) for images in shards]

    # Serial thread-lane ground truth every dispatch config must
    # reproduce.
    with WorkerGroup([ThreadWorker()], deployments=[deployment]) as group:
        baseline = group.run(make_items())

    def drain(group) -> tuple:
        items = make_items()
        started = time.perf_counter()
        results = [future.result() for future in group.submit_many(items)]
        return time.perf_counter() - started, results

    walls = {}
    for stop_and_wait in (True, False):
        group = WorkerGroup(
            _one_in_flight(create_workers(["process"] * SWEEP_LANES),
                           stop_and_wait),
            deployments=[deployment], max_batch_items=1,
            heartbeat_s=30.0)
        with group:
            # Fork, deploy, arenas and the credit's first service-time
            # samples stay off the timed path.
            drain(group)
            walls[stop_and_wait], results = min(
                (drain(group) for _ in range(SWEEP_ROUNDS)),
                key=lambda pair: pair[0])
        # Windowing is pure scheduling: the merge must not notice it.
        for base, result in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, result.logits)
            assert base.merged_trace() == result.merged_trace()

    return {
        "workload": (f"sparse backend, {SWEEP_UNITS} shards x "
                     f"{SWEEP_SHARD} event frames "
                     f"({SWEEP_SILENT_FRAC:.0%} silent, density "
                     f"{SWEEP_DENSITY})"),
        "lanes": SWEEP_LANES,
        "window_cap": ProcessWorker.pipeline_depth,
        "rounds": SWEEP_ROUNDS,
        "wall_stop_and_wait_s": walls[True],
        "wall_windowed_s": walls[False],
        "speedup": walls[True] / walls[False],
        "bit_identical": True,
    }


def run_cache_serving(rng) -> dict:
    """Gate 3: duplicate-heavy serving, cache-hit pass vs cold pass."""
    network = performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 10)],
        input_shape=(1, 12, 12), num_steps=3,
        seed=int(rng.integers(1 << 16)))
    shape = network.input_shape
    images = [rng.random((1,) + shape)[0] for _ in range(CACHE_REQUESTS)]
    warmup = rng.random((1,) + shape)[0]

    async def main():
        async with InferenceServer(network, max_wait_ms=0.0,
                                   result_cache=2 * CACHE_REQUESTS
                                   ) as server:
            await server.submit(warmup)  # compile off the timed path
            started = time.perf_counter()
            cold = [await server.submit(image) for image in images]
            cold_wall = time.perf_counter() - started
            started = time.perf_counter()
            hits = [await server.submit(image) for image in images]
            hit_wall = time.perf_counter() - started
            return cold, cold_wall, hits, hit_wall, server.snapshot()

    cold, cold_wall, hits, hit_wall, snapshot = asyncio.run(main())

    # Hits must replay the cold results verbatim.
    for first, again in zip(cold, hits):
        np.testing.assert_array_equal(first.logits, again.logits)
        assert first.prediction == again.prediction
        assert first.trace == again.trace
    cache = snapshot.fabric["result_cache"]
    assert cache["hits"] >= CACHE_REQUESTS
    assert snapshot.cached >= CACHE_REQUESTS

    total = cache["hits"] + cache["misses"]
    return {
        "requests": CACHE_REQUESTS,
        "wall_cold_s": cold_wall,
        "wall_cached_s": hit_wall,
        "speedup": cold_wall / hit_wall,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "hit_rate": cache["hits"] / total,
        "bit_identical": True,
    }


def _measured(run, threshold: float) -> dict:
    """Run a gate's measurement, re-rolling on a miss (bounded): the
    gates race wall clocks on a shared host — a real regression keeps
    failing every attempt, a noisy neighbour usually only one."""
    for attempt in range(1, MEASURE_ATTEMPTS + 1):
        results = run()
        if results["speedup"] >= threshold:
            break
    results["attempts"] = attempt
    return results


def run_bench(rng) -> dict:
    payload = {
        "remote": _measured(lambda: run_remote_pipelining(rng),
                            REMOTE_GATE),
        "cache": _measured(lambda: run_cache_serving(rng), CACHE_GATE),
    }
    if multicore(2):
        payload["sweep"] = _measured(lambda: run_sweep_pipelining(rng),
                                     SWEEP_GATE)
    else:
        print(f"note: only {os.cpu_count()} core(s) visible - the "
              f">= {SWEEP_GATE}x pipelined sweep bar needs a lane "
              "beyond the driver's core; omitted")
    return payload


def _render(payload: dict) -> Table:
    remote = payload["remote"]
    cache = payload["cache"]
    table = Table(
        "Pipelined fabric - windowed dispatch and result cache "
        f"({os.cpu_count()} cores)",
        ["metric", "value"])
    table.add_row("remote work list",
                  f"{remote['items']} chunks x {remote['item_batch']} "
                  f"images, {remote['wire_latency_ms']:.0f} ms wire")
    table.add_row("remote stop-and-wait (s)",
                  f"{remote['wall_stop_and_wait_s']:.2f}")
    table.add_row(f"remote credit-windowed, cap {remote['window_cap']} "
                  "(s)",
                  f"{remote['wall_windowed_s']:.2f}")
    table.add_row("remote speedup", f"{remote['speedup']:.2f}x")
    if "sweep" in payload:
        sweep = payload["sweep"]
        table.add_row("sweep workload", sweep["workload"])
        table.add_row("sweep stop-and-wait (s)",
                      f"{sweep['wall_stop_and_wait_s']:.2f}")
        table.add_row(f"sweep credit-windowed, cap {sweep['window_cap']} "
                      "(s)",
                      f"{sweep['wall_windowed_s']:.2f}")
        table.add_row("sweep speedup", f"{sweep['speedup']:.2f}x")
    table.add_row("cache cold pass (s)", f"{cache['wall_cold_s']:.3f}")
    table.add_row("cache hit pass (s)", f"{cache['wall_cached_s']:.3f}")
    table.add_row("cache speedup", f"{cache['speedup']:.1f}x")
    table.add_row("cache hit rate", f"{cache['hit_rate']:.0%}")
    return table


def check_gates(payload: dict) -> None:
    """Acceptance bars, shared by the pytest and __main__ paths."""
    remote = payload["remote"]
    assert remote["bit_identical"]
    assert remote["chunks_pipelined"] > 0, \
        "the windowed run never had two chunks in flight"
    assert remote["speedup"] >= REMOTE_GATE, \
        (f"a windowed remote lane must be >= {REMOTE_GATE}x "
         f"stop-and-wait under {remote['wire_latency_ms']:.0f} ms wire "
         f"latency, measured {remote['speedup']:.2f}x")
    if "sweep" in payload:
        sweep = payload["sweep"]
        assert sweep["bit_identical"]
        assert sweep["speedup"] >= SWEEP_GATE, \
            (f"a pipelined 2-lane process sweep must be >= "
             f"{SWEEP_GATE}x the stop-and-wait baseline, measured "
             f"{sweep['speedup']:.2f}x")
    cache = payload["cache"]
    assert cache["bit_identical"]
    assert cache["speedup"] >= CACHE_GATE, \
        (f"the cache-hit serving path must be >= {CACHE_GATE}x the "
         f"cold path on a duplicate-heavy load, measured "
         f"{cache['speedup']:.1f}x")


def test_pipelined_fabric(rng, benchmark):
    skip_unless_multicore(2, "pipelined 2-lane sweep gate")
    payload = run_bench(rng)
    print_table(_render(payload))
    write_artifact(RESULTS_PATH, payload)
    check_gates(payload)

    network = performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 10)],
        input_shape=(1, 12, 12), num_steps=3,
        seed=int(rng.integers(1 << 16)))
    image = rng.random((1,) + network.input_shape)[0]

    def duplicate_heavy_serve():
        async def main():
            async with InferenceServer(network, max_wait_ms=0.0) as server:
                for _ in range(CACHE_REQUESTS):
                    await server.submit(image)

        asyncio.run(main())

    benchmark.pedantic(duplicate_heavy_serve, rounds=1, iterations=1)


if __name__ == "__main__":
    bench_rng = np.random.default_rng(17)
    bench_payload = run_bench(bench_rng)
    print(_render(bench_payload).render())
    write_artifact(RESULTS_PATH, bench_payload)
    check_gates(bench_payload)
