"""The three workloads: sweep-vgg, sweep-events and serve-tcp.

Each workload generates its inputs from the seed, sets the program up
(network, engines, lanes or server, one warm-up batch), measures for a
fixed wall time, tears everything down and checks the outputs against a
serial recomputation.  Shard sizes, job sizes, rates and concurrency are
constants here, never derived per run, so two runs do the same work.
"""

from __future__ import annotations

import asyncio
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.baselines.published import PAPER_ROWS
from repro.core.config import AcceleratorConfig
from repro.core.energy import trace_energy
from repro.core.engine import (TraceMerge, clear_engine_cache,
                               create_engine, warm_compile, warm_engine)
from repro.harness.sweep import SweepDriver
from repro.harness.sweep.work import SweepTask
from repro.models import vgg11_performance_network
from repro.models.geometry import performance_network
from repro.runtime import Deployment, WorkerGroup, create_workers
from repro.serve.transport import TcpClient

from perfbench import inputs, loadgen, stats

RUN_PY = Path(__file__).resolve().parent / "run.py"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Length of the serving slices whose medians the run reports.
SLICE_S = 1.0

#: LeNet-5 "32x32x1 - 6C5 - P2 - 16C5 - P2 - 120C5 - 120 - 84 - 10".
LENET5_LAYERS = [("conv", 6, 5, 1, 0), ("pool", 2), ("conv", 16, 5, 1, 0),
                 ("pool", 2), ("conv", 120, 5, 1, 0), ("flatten",),
                 ("linear", 120), ("linear", 84), ("linear", 10)]

#: Every layer name a workload's network can have (VGG-11 covers
#: LeNet-5's), so the per-layer simulated metrics share one name set.
SIM_LAYERS = ("conv1", "pool1", "conv2", "pool2", "conv3", "conv4",
              "pool3", "conv5", "conv6", "pool4", "conv7", "conv8",
              "pool5", "flatten", "fc1", "fc2", "fc3")


def lenet5():
    """LeNet-5 at paper geometry (T=4) on Table III's 4 units at 200 MHz."""
    network = performance_network(LENET5_LAYERS, (1, 32, 32), num_steps=4)
    return network, AcceleratorConfig().with_units(4).with_clock(200.0)


def vgg11():
    """Full-geometry VGG-11 (T=6) on Table III's 8 units at 115 MHz."""
    network = vgg11_performance_network(6)
    return network, AcceleratorConfig.for_network(
        network, num_conv_units=8, clock_mhz=115.0)


def paper_latency_us(network_name: str) -> float:
    for row in PAPER_ROWS:
        if row.network == network_name:
            return row.latency_us
    raise KeyError(network_name)


class RecordingGroup(WorkerGroup):
    """A worker group that keeps the results of its latest ``run``, so
    the correctness gate can read the logits a sweep produced."""

    last_results: list = ()

    def run(self, items, assignment=None, result_callback=None) -> list:
        results = super().run(items, assignment, result_callback)
        self.last_results = results
        return results


class ChildProcess:
    """A program process the benchmark starts from its own entry point.

    The child prints ``port N`` once it listens and exits when its
    standard input closes.
    """

    def __init__(self, role: str, trace: bool, spans_dir: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--role", role,
             "--trace", "1" if trace else "0", "--spans", str(spans_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError(f"{role} process did not start: {line!r}")
        self.port = int(line.split()[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout_s: float = 20.0) -> bool:
        """Close stdin and wait; False if the child had to be killed."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout_s)
            clean = self.proc.returncode == 0
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            clean = False
        self.proc.stdout.close()
        return clean


class Workload:
    """Shared bookkeeping; subclasses fill in the four phases."""

    name = ""
    network_name = ""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 spans_dir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spans_dir = spans_dir
        self.ports: list[int] = []       # listening ports, for the leak check
        self.attempted = 0               # operations tried while measuring
        self.images_done = 0             # images completed while measuring
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        self.throughput = 0.0
        self.sim_cycles = 0              # summed over the simulated set
        self.sim_energy_uj = 0.0
        self.sim_images = 0
        self.layer_traces = None         # ExecutionTraces of the sample
        self.extras: dict = {}

    def latency(self) -> dict:
        """The reported p50/p95 plus the samples they rest on."""
        summary = stats.summary(self.latencies_ms)
        return {"p50_ms": summary["p50"], "p95_ms": summary["p95"],
                "samples": summary}

    def reference(self, images: np.ndarray):
        """Serial recomputation in this process on a fresh vectorized
        engine, not the warm engine instance the program ran."""
        engine = create_engine("vectorized",
                               warm_compile(self.network, self.config))
        return engine.run_batch(images)

    def sim_metrics(self) -> dict:
        us = self.sim_cycles / self.sim_images / self.config.clock_mhz
        paper = paper_latency_us(self.network_name)
        return {"sim_us_per_image": us,
                "sim_uj_per_image": self.sim_energy_uj / self.sim_images,
                "paper_latency_err_pct": abs(us - paper) / paper * 100.0,
                "paper_latency_signed_err_pct": (us - paper) / paper * 100.0}


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    """Repeated fixed-size ``SweepDriver.run`` jobs on a started group.

    The pool of images is cut into equal jobs that the measurement
    cycles through; a job's wall time is the latency a sweep user waits
    on, and images per wall second of the jobs is the throughput.
    """

    backend = "vectorized"
    pool_size = 0
    job_size = 0
    shard_size = 0
    sample_size = 0
    warmup_size = 0
    lanes = 2

    def make_inputs(self) -> None:
        self.pool = self.make_pool()
        self.sample = inputs.check_sample(self.seed, self.pool_size,
                                          self.sample_size)
        self.warmup = inputs.warmup_images(self.seed, self.warmup_size,
                                           self.pool.shape[1:])
        self.job_logits: dict[int, np.ndarray] = {}
        self.job_traces: dict[int, TraceMerge] = {}
        self.job_cycles: list[tuple[int, int]] = []   # (cycles, images)
        self.group = None
        self.children: list[ChildProcess] = []

    def task(self, key: str, images: np.ndarray) -> SweepTask:
        return SweepTask(key=key, network=self.network, config=self.config,
                         images=images,
                         labels=np.zeros(len(images), dtype=np.int64),
                         backend=self.backend)

    def setup(self) -> None:
        clear_engine_cache()
        self.network, self.config = self.build()
        specs = self.start_lanes()
        self.group = RecordingGroup(
            create_workers(specs),
            deployments=[Deployment(self.network, self.config,
                                    self.backend)])
        self.group.start()
        if len(self.group.alive_workers()) != self.lanes:
            raise RuntimeError(f"only {self.group.alive_workers()} of "
                               f"{self.lanes} lanes started")
        self.driver = SweepDriver(workers=specs, shard_size=self.shard_size)
        self.driver.run([self.task("warmup", self.warmup)], group=self.group)

    def measure(self, seconds: float) -> None:
        jobs = self.pool_size // self.job_size
        before = self.group.metrics.to_dict()
        started = time.perf_counter()
        count = 0
        while time.perf_counter() - started < seconds:
            index = count % jobs
            count += 1
            images = self.pool[index * self.job_size:
                               (index + 1) * self.job_size]
            task = self.task(f"job{index}", images)
            self.attempted += len(images)
            t0 = time.perf_counter()
            try:
                outcome = self.driver.run([task],
                                          group=self.group)[task.key]
            except Exception as error:  # noqa: BLE001 — counted as failed
                self.failures.append(f"job {index}: {error!r}")
                continue
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            self.images_done += outcome.num_images
            self.record_job(index, outcome)
        wall = sum(self.latencies_ms) / 1e3
        self.throughput = self.images_done / wall if wall else 0.0
        after = self.group.metrics.to_dict()
        self.extras["fabric"] = {key: after[key] - before[key]
                                 for key in ("stolen", "requeued")}
        self.extras["lanes"] = self.lanes
        if len(self.job_traces) < jobs:
            self.failures.append(
                f"only {len(self.job_traces)} of {jobs} jobs completed; "
                "the simulated metrics need one full pass over the pool")

    def record_job(self, index: int, outcome) -> None:
        logits = np.concatenate(
            [result.logits for result in self.group.last_results])
        if not np.array_equal(logits.argmax(axis=1), outcome.predictions):
            self.failures.append(f"job {index}: predictions disagree "
                                 "with the returned logits")
        previous = self.job_logits.get(index)
        if previous is None:
            self.job_logits[index] = logits
            self.job_traces[index] = outcome.trace
        elif not np.array_equal(previous, logits):
            self.failures.append(f"job {index}: logits changed between "
                                 "repeats")
        self.job_cycles.append((outcome.trace.total_cycles,
                                outcome.num_images))

    def teardown(self) -> None:
        if self.group is not None:
            self.group.stop()
            self.group = None
        for child in self.children:
            if not child.stop():
                self.failures.append(f"child {child.pid} did not stop "
                                     "cleanly")
        self.children = []

    def verify(self) -> int:
        """Serial check of the sample; returns the images checked."""
        images = self.pool[self.sample]
        expected, traces = self.reference(images)
        single = traces[0].total_cycles
        for row, image in zip(expected, self.sample):
            job = self.job_logits.get(int(image) // self.job_size)
            if job is not None and not np.array_equal(
                    row, job[int(image) % self.job_size]):
                self.failures.append(f"image {image}: logits differ from "
                                     "the serial vectorized run")
        if any(trace.total_cycles != single for trace in traces):
            self.failures.append("single-image cycles depend on the input")
        for cycles, count in self.job_cycles:
            if cycles != count * single:
                self.failures.append(
                    f"merged sweep cycles {cycles} != {count} x {single}")
        merged = TraceMerge()
        for trace in self.job_traces.values():
            merged.merge(trace)
        self.sim_cycles = merged.total_cycles
        self.sim_images = merged.num_images
        self.sim_energy_uj = trace_energy(
            merged, weight_bits=self.network.weight_bits).total_uj
        self.layer_traces = traces
        return len(images)


class SweepVgg(SweepWorkload):
    """Dense VGG-11 on two forked process lanes (engine-bound)."""

    name = "sweep-vgg"
    network_name = "VGG-11"
    backend = "vectorized"
    pool_size = 128
    job_size = 32
    shard_size = 4
    sample_size = 8
    warmup_size = 8

    def make_pool(self) -> np.ndarray:
        return inputs.dense_images(self.seed, self.pool_size)

    def build(self):
        return vgg11()

    def start_lanes(self) -> list[str]:
        # Warm in this process first: the forked lanes inherit the
        # compiled engine, as a driver that deploys before forking does.
        warm_engine(self.network, self.config, self.backend)
        return ["process"] * self.lanes


class SweepEvents(SweepWorkload):
    """Sparse LeNet-5 event frames on two localhost remote lanes
    (dispatch-, codec- and merge-bound)."""

    name = "sweep-events"
    network_name = "LeNet-5"
    backend = "sparse"
    pool_size = 4096
    job_size = 1024
    shard_size = 64
    sample_size = 256
    warmup_size = 256

    def make_pool(self) -> np.ndarray:
        return inputs.event_images(self.seed, self.pool_size)

    def build(self):
        return lenet5()

    def start_lanes(self) -> list[str]:
        for _ in range(self.lanes):
            self.children.append(ChildProcess("worker", self.trace,
                                              self.spans_dir))
        self.ports = [child.port for child in self.children]
        return [f"127.0.0.1:{child.port}" for child in self.children]


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class ServeTcp(Workload):
    """LeNet-5 behind ``InferenceServer`` + ``start_tcp_server`` in a
    server process, driven over one ``TcpClient`` connection.

    Phase 1 offers seeded Poisson arrivals at a fixed rate and gives the
    latency figures; phase 2 keeps a fixed number of requests outstanding
    and gives the throughput.  About a quarter of requests repeat an
    earlier image, so the server's result cache both hits and evicts.

    The rate is about a third of the saturated rate on a 2-vCPU host:
    at half, a neighbour slowing the host by a fifth pushed the server
    into queueing and doubled p95 from one run to the next.  Both phases
    report the median over one-second slices (latency slices by due
    time), so a short stall on a shared host moves one slice, not the
    run's figure.
    """

    name = "serve-tcp"
    network_name = "LeNet-5"
    rate_rps = 250.0
    open_share = 0.6          # of the measured seconds
    outstanding = 16
    pool_size = 4096
    sample_size = 512
    warmup_size = 32
    max_saturation_requests = 60_000

    def make_inputs(self) -> None:
        self.network, self.config = lenet5()
        self.pool = inputs.event_images(self.seed, self.pool_size,
                                        silent=False)
        self.open_s = self.seconds * self.open_share
        self.arrivals = inputs.poisson_arrivals(self.seed, self.rate_rps,
                                                self.open_s)
        self.schedule = inputs.duplicate_schedule(
            self.seed, len(self.arrivals) + self.max_saturation_requests,
            self.pool_size)
        self.sample = inputs.check_sample(self.seed, self.pool_size,
                                          self.sample_size)
        self.warmup = inputs.warmup_images(self.seed, self.warmup_size,
                                           self.network.input_shape)
        self.replies: list[tuple[int, dict]] = []
        self.due_times: list[float] = []
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.client = None

    def latency(self) -> dict:
        slices = loadgen.sliced(self.latencies_ms, self.due_times,
                                self.extras["open_window"][0], SLICE_S)
        return {
            "p50_ms": stats.median(stats.percentile(s, 50)[0]
                                   for s in slices),
            "p95_ms": stats.median(stats.percentile(s, 95)[0]
                                   for s in slices),
            "samples": dict(stats.summary(self.latencies_ms),
                            slices=len(slices),
                            smallest_slice=min(map(len, slices))),
        }

    def setup(self) -> None:
        self.server = ChildProcess("server", self.trace, self.spans_dir)
        self.ports = [self.server.port]
        self.loop.run_until_complete(self._connect())

    async def _connect(self) -> None:
        self.client = await TcpClient("127.0.0.1", self.server.port).connect()
        await asyncio.gather(*(self.client.infer(image)
                               for image in self.warmup))

    def measure(self, seconds: float) -> None:
        self.loop.run_until_complete(self._measure(seconds))

    async def _measure(self, seconds: float) -> None:
        client = self.client

        async def send(index: int) -> dict:
            image = self.schedule[index % len(self.schedule)]
            return await client.infer(self.pool[image])

        before = await client.metrics()
        self.extras["open_window"] = [time.perf_counter()]
        report = await loadgen.open_loop(send, self.arrivals)
        self.extras["open_window"].append(time.perf_counter())
        saturation_start = time.perf_counter()
        outcomes, wall = await loadgen.closed_loop(
            send, self.outstanding, seconds - self.open_s,
            first_index=len(self.arrivals))
        after = await client.metrics()

        opened = report.outcomes
        answered = [o for o in opened if o.error is None]
        self.latencies_ms = [o.latency_s * 1e3 for o in answered]
        self.due_times = [o.done_at - o.latency_s for o in answered]
        ok = [o for o in outcomes if o.error is None]
        per_slice = [0] * int((seconds - self.open_s) // SLICE_S)
        for outcome in ok:
            position = int((outcome.done_at - saturation_start) // SLICE_S)
            if position < len(per_slice):
                per_slice[position] += 1
        self.extras["saturation"] = {"per_slice": per_slice,
                                     "overall_per_s": len(ok) / wall}
        self.throughput = stats.median(per_slice) / SLICE_S
        self.attempted = len(opened) + len(outcomes)
        self.images_done = len(self.latencies_ms) + len(ok)
        for outcome in opened + outcomes:
            if outcome.error is not None:
                self.failures.append(f"request {outcome.index}: "
                                     f"{outcome.error!r}")
            else:
                self.replies.append((outcome.index, outcome.reply))
        self.extras["open_replies"] = [o.reply for o in opened
                                       if o.error is None]
        self.extras["loadgen"] = {
            "lags_ms": [lag * 1e3 for lag in report.lags_s],
            "sent": len(opened),
            "failed": sum(o.error is not None for o in opened)}
        cache_before = before["fabric"]["result_cache"]
        cache_after = after["fabric"]["result_cache"]
        self.extras["cache"] = {
            key: cache_after[key] - cache_before[key]
            for key in ("hits", "misses", "evictions")}
        self.extras["fabric"] = {
            key: after["fabric"][key] - before["fabric"][key]
            for key in ("stolen", "requeued")}
        self.extras["lanes"] = 1

    def teardown(self) -> None:
        if self.client is not None:
            self.loop.run_until_complete(self.client.close())
            self.client = None
        if self.server is not None:
            if not self.server.stop():
                self.failures.append(f"server {self.server.pid} did not "
                                     "stop cleanly")
            self.server = None

    def verify(self) -> int:
        self.loop.close()
        expected, traces = self.reference(self.pool[self.sample])
        by_image = {int(image): row for image, row
                    in zip(self.sample, expected)}
        single = traces[0].total_cycles
        seen: dict[int, np.ndarray] = {}
        for index, reply in self.replies:
            image = int(self.schedule[index])
            logits = np.asarray(reply["logits"], dtype=np.int64)
            problems = []
            if int(reply["prediction"]) != int(logits.argmax()):
                problems.append("prediction is not the logits' argmax")
            if int(reply["cycles"]) != single:
                problems.append(f"cycles {reply['cycles']} != {single}")
            reference = by_image.get(image, seen.get(image))
            if reference is not None and not np.array_equal(reference,
                                                            logits):
                problems.append("logits differ from the serial run or "
                                "from an earlier reply")
            seen.setdefault(image, logits)
            if problems:
                self.failures.append(f"request {index}: "
                                     + "; ".join(problems))
        opened = self.extras["open_replies"]
        self.sim_cycles = sum(int(reply["cycles"]) for reply in opened)
        self.sim_energy_uj = sum(float(reply["energy_pj"])
                                 for reply in opened) * 1e-6
        self.sim_images = len(opened)
        self.layer_traces = traces
        return len(self.replies)


WORKLOADS = {cls.name: cls for cls in (SweepVgg, SweepEvents, ServeTcp)}
