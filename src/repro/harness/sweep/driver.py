"""The sweep driver: sharded execution over the runtime worker fabric.

:class:`SweepDriver` takes a work list of :class:`SweepTask` cells
(configs × datasets), shards each cell's image range, and runs the
shards across a :class:`~repro.runtime.WorkerGroup` — any mix of
``thread`` lanes (in-process), ``process`` lanes (forked children) and
``host:port`` remote TCP engine workers (hosts running ``repro worker
--listen``).  The driver owns only sweep *policy* — sharding,
saturation-aware sizing, the persistent result store, progress
reporting — while the
fabric owns worker lifecycle: scheduling, work stealing between idle
lanes, heartbeat liveness and crash requeueing.

Multi-model and elastic, since the deployment-registry refactor:

* A heterogeneous work list (LeNet cells next to Fang or VGG cells, any
  encoding) builds its deployment table **deduplicated by content
  fingerprint** — tasks sharing a model share one warm engine slot on
  every lane.
* ``run(tasks, group=...)`` schedules onto an *external* live
  :class:`~repro.runtime.WorkerGroup` (appending its deployments via
  ``add_deployments``) instead of owning one — the same group can serve
  inference traffic and sweep shards concurrently.
* ``accept=(host, port)`` opens a
  :class:`~repro.runtime.GroupListener` for the duration of the run, so
  hosts running ``repro worker --join host:port`` enter the sweep
  **mid-run** as new lanes.
* ``stream=callable`` receives one JSON-ready record per completed
  shard (deployment, image range, cycles, running top-1) — the live
  feed ``repro sweep --stream out.jsonl`` writes for dashboards.

Determinism contract: for any lane mix, any shard size **and any lane
churn mid-run** (joins, removals, evictions, re-admissions) the merged
predictions, accuracies and trace counters are bit-identical to a
single-process run (``tests/test_sweep.py``, ``tests/test_runtime.py``
and ``tests/test_multimodel.py`` pin this; ``benchmarks/bench_runtime.py``
asserts it across a live TCP fabric).  Store keys include the backend
name, so results computed under one engine can never be served to a run
requesting another.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.engine import warm_engine
from repro.errors import ConfigurationError
from repro.harness.artifacts import ArtifactStore
from repro.harness.sweep.work import (
    ShardResult,
    SweepTask,
    TaskOutcome,
    WorkUnit,
    shard_tasks,
    sweep_store_key,
)
from repro.runtime import (
    DEFAULT_DISPATCH_COST_S,
    Deployment,
    DeploymentRegistry,
    GroupListener,
    WorkItem,
    WorkerGroup,
    create_workers,
    normalize_worker_specs,
)

__all__ = ["SweepDriver", "SweepProgress", "SweepSummary"]

#: Saturation-aware sizing grows shards until per-unit overhead (batch
#: setup + fabric dispatch) drops below this fraction of the unit's
#: compute time — the lane spends >= 95 % of its wall clock computing.
_SATURATE_OVERHEAD_FRACTION = 0.05

#: Images in each saturating cost probe's batch-of-K run (clamped to
#: the task size).
_PROBE_IMAGES = 16


@dataclass(frozen=True)
class SweepProgress:
    """One progress tick, emitted after every completed work unit."""

    done_units: int
    total_units: int
    done_images: int
    total_images: int
    elapsed_s: float
    task_key: str

    @property
    def images_per_second(self) -> float:
        return self.done_images / self.elapsed_s if self.elapsed_s else 0.0


@dataclass
class SweepSummary:
    """Wall-clock totals of one ``SweepDriver.run`` call."""

    workers: int
    shard_size: int
    num_tasks: int
    num_units: int
    num_images: int
    cached_tasks: int
    wall_s: float
    #: True when shard sizes came from the saturation-aware sizer.
    saturate: bool = False
    #: Per-task shard sizes chosen by the saturating probe
    #: (key -> images per unit); ``None`` for fixed-size runs.
    task_shard_sizes: dict | None = None
    #: The lane specs the fabric ran on (("thread",), ("process", ...)).
    executors: tuple = ()
    #: Lanes evicted mid-run (dead processes / dropped hosts) — their
    #: work was requeued, so results are unaffected.
    worker_crashes: int = 0
    #: Units an idle lane stole from a busy peer's queue.
    stolen_units: int = 0
    #: Distinct deployment-table slots the task list deduplicated to.
    num_deployments: int = 0
    #: Lanes that joined the group mid-run (``repro worker --join`` or
    #: ``add_lane``); their work merges identically by contract.
    lanes_joined: int = 0
    #: Evicted lanes re-admitted after a successful probation probe.
    lanes_readmitted: int = 0

    @property
    def images_per_second(self) -> float:
        return self.num_images / self.wall_s if self.wall_s else 0.0


class SweepDriver:
    """Runs sweep work lists over the runtime worker fabric.

    Idle lanes always steal queued units, and how many chunks each lane
    keeps in flight is the group's dispatch credit (see
    :class:`~repro.runtime.WorkerGroup`); the driver sets neither.

    Parameters
    ----------
    workers:
        Lane request for the :class:`~repro.runtime.WorkerGroup`.  An
        integer keeps its historical meaning — ``1`` is one in-process
        lane (the determinism baseline every other mix is compared
        against), ``N`` is ``N`` forked process lanes.  A list of spec
        strings names an explicit mix: ``"thread"``, ``"process"``,
        multipliers like ``"process:4"``, or ``"host:port"`` for remote
        TCP engine workers (``repro sweep --workers host:7601,thread``).
    shard_size:
        Images per work unit.  Smaller shards balance better across
        lanes; the merged result is invariant to this choice.
    saturate:
        Saturation-aware shard sizing: probe each task's per-image *and*
        per-batch cost inline, add the fabric's per-chunk dispatch cost
        (:data:`~repro.runtime.DEFAULT_DISPATCH_COST_S`), and grow
        shards until per-unit overhead falls below 5 % of unit compute
        — lanes then spend their wall clock computing, not dispatching.
        Matters most for cheap-per-image work (sparse/event workloads)
        where a fixed shard size leaves lanes dominated by dispatch.
        Results remain bit-identical — shard boundaries never affect
        the merge.
    store:
        Optional :class:`ArtifactStore`; merged outcomes are persisted
        under ``sweep_<task key>_<backend>`` and served from disk on
        re-runs of the same cell.
    progress:
        Optional callable receiving a :class:`SweepProgress` after every
        completed unit (throughput reporting).
    stream:
        Optional callable receiving one JSON-ready dict per completed
        shard (task key, deployment fingerprint, image range, cycles,
        running top-1) — fired live from the fabric's dispatcher
        threads, serialized under a lock.
    accept:
        Optional ``(host, port)``: open a group listener for the run so
        ``repro worker --join host:port`` hosts enter as lanes mid-run
        (``port=0`` binds ephemeral; the bound port lands in
        ``self.listener.port`` once the run is live).
    token:
        Fabric shared secret for remote lanes and joining hosts.
    """

    def __init__(
        self,
        workers=1,
        shard_size: int = 64,
        store: ArtifactStore | None = None,
        progress=None,
        saturate: bool = False,
        heartbeat_s: float = 2.0,
        stream=None,
        accept: tuple[str, int] | None = None,
        token: str | None = None,
    ) -> None:
        self.worker_specs = normalize_worker_specs(workers)
        self.workers = workers
        self.shard_size = shard_size
        self.saturate = saturate
        self.heartbeat_s = heartbeat_s
        self.store = store
        self.progress = progress
        self.stream = stream
        self.accept = accept
        self.token = token
        self.listener: GroupListener | None = None  # live during a run
        self.last_summary: SweepSummary | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def store_key(task: SweepTask) -> str:
        """Persistent-store key; includes the engine name by contract."""
        return sweep_store_key(task.key, task.backend)

    def run(self, tasks, group: WorkerGroup | None = None
            ) -> dict[str, TaskOutcome]:
        """Execute a work list; returns ``{task key: merged outcome}``.

        With ``group`` given (a *started* :class:`WorkerGroup`), the
        sweep schedules onto that shared fabric instead of owning one:
        its deployments are appended to the group's table (content-equal
        entries reuse existing slots) and the group is left running —
        serving traffic and other sweeps continue uninterrupted.
        """
        tasks = list(tasks)
        if not tasks:
            raise ConfigurationError("sweep work list is empty")
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(
                f"sweep task keys must be unique, got {keys}")

        started = time.perf_counter()
        outcomes: dict[str, TaskOutcome] = {}
        pending: list[SweepTask] = []
        for task in tasks:
            if self.store is not None and self.store.has_result(
                    self.store_key(task)):
                outcomes[task.key] = TaskOutcome.from_dict(
                    self.store.load_result(self.store_key(task)))
            else:
                pending.append(task)

        units: list[WorkUnit] = []
        task_shard_sizes: dict | None = None
        fabric = {"crashes": 0, "stolen": 0, "deployments": 0,
                  "joined": 0, "readmitted": 0}
        if pending:
            sizes: int | list[int] = self.shard_size
            if self.saturate:
                sizes = self._saturating_shard_sizes(pending)
                task_shard_sizes = {task.key: size for task, size
                                    in zip(pending, sizes)}
            units = shard_tasks(pending, sizes)
            results = self._run_fabric(pending, units, fabric, group)
            for task, outcome in zip(pending,
                                     self._merge(pending, results)):
                outcomes[task.key] = outcome
                if self.store is not None:
                    self.store.save_result(self.store_key(task),
                                           outcome.to_dict())

        self.last_summary = SweepSummary(
            workers=len(self.worker_specs), shard_size=self.shard_size,
            num_tasks=len(tasks),
            num_units=len(units),
            num_images=sum(t.num_images for t in pending),
            cached_tasks=len(tasks) - len(pending),
            wall_s=time.perf_counter() - started,
            saturate=self.saturate,
            task_shard_sizes=task_shard_sizes,
            executors=tuple(self.worker_specs),
            worker_crashes=fabric["crashes"],
            stolen_units=fabric["stolen"],
            num_deployments=fabric["deployments"],
            lanes_joined=fabric["joined"],
            lanes_readmitted=fabric["readmitted"])
        return {key: outcomes[key] for key in keys}

    # ------------------------------------------------------------------
    # Saturation-aware shard sizing
    # ------------------------------------------------------------------
    def _saturating_shard_sizes(self, tasks) -> list[int]:
        """Grow shards until per-unit overhead stops mattering.

        Every work unit pays a fixed tax — the engine's per-batch setup
        plus the fabric's dispatch cost (submit, transfer, result
        shipping).  On cheap sparse/event workloads that tax dominates,
        and lanes spend their time dispatching instead of computing.
        This sizer measures each task's per-image and per-batch cost
        inline (batch-of-1 vs batch-of-K on the warm engine, best of
        five so a stray scheduler hiccup cannot skew the split; the K
        probe images are strided across the whole stream, since event
        workloads bunch silent and live frames and the head alone
        misleads), adds the fabric's :data:`DEFAULT_DISPATCH_COST_S`,
        and picks the smallest shard where overhead is under
        :data:`_SATURATE_OVERHEAD_FRACTION` of unit compute — capped so
        every lane still gets at least two units to balance across.
        Only scheduling changes; the merge is bit-identical regardless.
        """
        lanes = max(len(self.worker_specs), 1)
        sizes = []
        for task in tasks:
            engine = warm_engine(task.network, task.config, task.backend,
                                 task.calibration)
            k = min(_PROBE_IMAGES, task.num_images)
            stride = max(task.num_images // k, 1)
            sample = task.images[::stride][:k]
            t1 = min(self._timed(engine, sample[:1])
                     for _ in range(5))
            per_image = max(t1, 1e-9)
            per_batch = 0.0
            if k > 1:
                tk = min(self._timed(engine, sample)
                         for _ in range(5))
                # The marginal estimate subtracts two noisy timings, so
                # pin it to its physical bounds: one image can never
                # cost more than a whole batch-of-1 run (t1, which also
                # pays the batch setup) nor less than half the naive
                # per-image average — a scheduler spike in tk or t1
                # otherwise poisons the split and the shard size with it.
                per_image = (tk - t1) / (k - 1)
                per_image = max(min(per_image, t1), tk / (2 * k), 1e-9)
                per_batch = max(t1 - per_image, 0.0)
            overhead = per_batch + DEFAULT_DISPATCH_COST_S
            amortized = math.ceil(
                overhead / (_SATURATE_OVERHEAD_FRACTION * per_image))
            balance_cap = math.ceil(task.num_images / (lanes * 2))
            sizes.append(max(1, min(amortized, balance_cap,
                                    task.num_images)))
        return sizes

    @staticmethod
    def _timed(engine, images) -> float:
        start = time.perf_counter()
        engine.run_batch(images)
        return time.perf_counter() - start

    # ------------------------------------------------------------------
    # Execution: hand the units to the worker fabric
    # ------------------------------------------------------------------
    @staticmethod
    def _deployment_table(tasks) -> tuple[list[Deployment], list[int]]:
        """Content-deduplicated deployments plus one index per task.

        Two cells scoring the same model under the same config and
        backend (a rate vs radix ablation re-using one network, a
        dataset split) share a table slot — every lane then warms one
        engine for both, and a joining host deploys the minimal table.
        Dedup is the registry's (one definition of "same content");
        task keys, unique by `run`'s validation, are the entry names.
        """
        registry = DeploymentRegistry()
        task_indices = [
            registry.register(task.key, Deployment(
                network=task.network, config=task.config,
                backend=task.backend,
                calibration=task.calibration)).index
            for task in tasks]
        return registry.table(), task_indices

    def _run_fabric(self, tasks, units, fabric: dict,
                    group: WorkerGroup | None = None
                    ) -> list[ShardResult]:
        """Run every unit through a WorkerGroup; returns shard results
        in unit order and records the fabric's counters in ``fabric``."""
        deployments, task_indices = self._deployment_table(tasks)
        fabric["deployments"] = len(deployments)
        tracker = _ProgressTracker(
            self, tasks, units,
            fingerprints=[deployments[i].fingerprint.split(":", 1)[1][:12]
                          for i in task_indices])
        own_group = group is None
        if own_group:
            group = WorkerGroup(
                create_workers(self.worker_specs, token=self.token),
                deployments=deployments, heartbeat_s=self.heartbeat_s)
            indices = task_indices
        else:
            if not group.started:
                raise ConfigurationError(
                    "external worker group must be started before "
                    "run(tasks, group=...)")
            slots = group.add_deployments(deployments)
            indices = [slots[i] for i in task_indices]
        items = [WorkItem(item_id=index,
                          deployment=indices[unit.task_index],
                          images=tasks[unit.task_index]
                          .images[unit.start:unit.stop])
                 for index, unit in enumerate(units)]
        metrics_before = group.metrics.to_dict() if not own_group else None
        try:
            if own_group:
                group.start()
            if self.accept is not None:
                # Joiners are admitted whichever group runs the sweep.
                # On an external (shared) group the lanes outlive the
                # run — only the listener closes with it.
                self.listener = GroupListener(
                    group, self.accept[0], self.accept[1],
                    token=self.token).start()
            work_results = group.run(
                items,
                result_callback=lambda result: tracker.tick(
                    units[result.item_id], result))
            after = group.metrics.to_dict()
            before = metrics_before or {}
            for key, field_name in (("crashes", "worker_crashes"),
                                    ("stolen", "stolen"),
                                    ("joined", "lanes_added"),
                                    ("readmitted", "readmitted")):
                fabric[key] = (after[field_name]
                               - before.get(field_name, 0))
        finally:
            if self.listener is not None:
                self.listener.close()
                self.listener = None
            if own_group:
                group.stop()
        shard_results = []
        for unit, result in zip(units, work_results):
            task = tasks[unit.task_index]
            predictions = result.predictions
            shard_results.append(ShardResult(
                task_index=unit.task_index, task_key=unit.task_key,
                shard_index=unit.shard_index, start=unit.start,
                stop=unit.stop, predictions=predictions,
                correct=int((predictions
                             == task.labels[unit.start:unit.stop]).sum()),
                trace=result.merged_trace(),
                elapsed_s=result.elapsed_s,
                worker_pid=result.pid))
        return shard_results

    # ------------------------------------------------------------------
    def _merge(self, tasks, results) -> list[TaskOutcome]:
        """Deterministic merge: shards sorted by image range, per task."""
        by_task: dict[int, list[ShardResult]] = {
            i: [] for i in range(len(tasks))}
        for result in results:
            by_task[result.task_index].append(result)
        outcomes = []
        for index, task in enumerate(tasks):
            shards = sorted(by_task[index], key=lambda r: r.start)
            outcome = TaskOutcome(key=task.key, backend=task.backend)
            outcome.predictions = np.concatenate(
                [shard.predictions for shard in shards])
            outcome.num_shards = len(shards)
            for shard in shards:
                outcome.correct += shard.correct
                outcome.num_images += shard.num_images
                outcome.trace.merge(shard.trace)
                outcome.elapsed_s += shard.elapsed_s
            outcomes.append(outcome)
        return outcomes


class _ProgressTracker:
    """Counts completed units/images; fires progress and stream hooks.

    Ticks arrive from the fabric's dispatcher threads, so the counters
    are guarded by a lock and callbacks are serialized.  The stream
    record is the live per-shard feed (``repro sweep --stream``): one
    JSON-ready dict per completed unit carrying the shard's identity,
    its cycle cost and the task's running top-1 — everything a dashboard
    needs without waiting for the merge.
    """

    def __init__(self, driver: SweepDriver, tasks, units,
                 fingerprints: list[str] | None = None) -> None:
        self.driver = driver
        self.tasks = list(tasks)
        self.fingerprints = fingerprints or [""] * len(self.tasks)
        self.total_units = len(units)
        self.total_images = sum(task.num_images for task in tasks)
        self.done_units = 0
        self.done_images = 0
        # Running per-task tallies for the stream's "top-1 so far".
        self._task_correct = [0] * len(self.tasks)
        self._task_images = [0] * len(self.tasks)
        self.started = time.perf_counter()
        self._lock = threading.Lock()

    def tick(self, unit: WorkUnit, result) -> None:
        with self._lock:
            self.done_units += 1
            self.done_images += unit.stop - unit.start
            elapsed = time.perf_counter() - self.started
            if self.driver.stream is not None:
                task = self.tasks[unit.task_index]
                correct = int((result.predictions
                               == task.labels[unit.start:unit.stop]).sum())
                self._task_correct[unit.task_index] += correct
                self._task_images[unit.task_index] += unit.num_images
                merged = result.merged_trace()
                self.driver.stream({
                    "task_key": unit.task_key,
                    "deployment": self.fingerprints[unit.task_index],
                    "backend": task.backend,
                    "shard_index": unit.shard_index,
                    "start": unit.start,
                    "stop": unit.stop,
                    "images": unit.num_images,
                    "correct": correct,
                    "cycles": merged.total_cycles,
                    "top1_so_far": (self._task_correct[unit.task_index]
                                    / self._task_images[unit.task_index]),
                    "worker": result.worker,
                    "elapsed_s": result.elapsed_s,
                    "done_units": self.done_units,
                    "total_units": self.total_units,
                    "wall_s": elapsed,
                })
            if self.driver.progress is not None:
                self.driver.progress(SweepProgress(
                    done_units=self.done_units,
                    total_units=self.total_units,
                    done_images=self.done_images,
                    total_images=self.total_images,
                    elapsed_s=elapsed,
                    task_key=unit.task_key))
