"""The WorkerGroup scheduler: one queue, many lanes, no deadlocks.

:class:`WorkerGroup` is the single worker-lifecycle owner for the whole
codebase — the serving pool and the sweep driver are thin policy layers
over it.  Mechanics:

* **Per-lane queues + work stealing.**  Every worker has a deque;
  ``submit`` places items on the shortest live queue (or an explicit
  lane for static assignment).  An idle lane steals from the tail of the
  longest peer queue, so a skewed cost distribution cannot tail-block
  the group.  Stealing only moves *scheduling*; results are keyed by
  item and merged by integer counters, so any interleaving is
  bit-identical (the fabric's acceptance contract).
* **Crash containment.**  A lane whose chunk send or collect raises
  :class:`~repro.errors.WorkerCrashError` (child killed, connection
  dropped, budget blown) is evicted: its in-flight window and queued
  backlog are requeued on healthy lanes and ``metrics.worker_crashes``
  counts the event.  Only when *no* healthy lane remains do the orphaned
  futures fail.  An item that has crashed :data:`_MAX_ATTEMPTS` lanes
  is treated as poison and failed instead of requeued.  A requeued item
  keeps its one future, so it resolves exactly once: a copy whose
  future a peer already resolved is dropped before dispatch.  The group
  keeps no result store; keyed dedup of client retries is the serving
  layer's (:class:`repro.serve.cache.ResultLedger`).
* **Heartbeats.**  A monitor thread pings idle lanes every
  ``heartbeat_s`` seconds; a lane that stops answering is evicted the
  same way, so a silently dead remote host cannot strand queued work.
* **Elasticity.**  The lane set is not fixed at ``start()``:
  :meth:`WorkerGroup.add_lane` admits a new worker (or a joining remote
  host, via :class:`~repro.runtime.remote.GroupListener`) into a running
  group, :meth:`WorkerGroup.remove_lane` drains one out (its queued work
  requeues on peers; its in-flight item finishes first), and
  :meth:`WorkerGroup.add_deployments` grows the deployment table
  mid-run, re-registering it with every live lane.  An evicted lane is
  not gone for good: the monitor keeps it on **probation** and, after a
  successful probe (reconnect + redeploy + ping), re-admits it with a
  fresh dispatcher — a host that rebooted rejoins by itself.  Lane churn
  only ever moves *scheduling*; any mid-run join/leave/re-admission
  merges bit-identically to a serial run (the fabric's acceptance
  contract, extended).

Results come back as :class:`concurrent.futures.Future` objects, which
both the synchronous sweep driver (``future.result()``) and the asyncio
serving pool (``asyncio.wrap_future``) consume directly.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ReproError, WorkerCrashError
from repro.runtime.chaos import ChaosPolicy
from repro.telemetry import get_registry
from repro.telemetry import get_tracer as _get_tracer
from repro.runtime.registry import DeploymentRegistry
from repro.runtime.work import Deployment, WorkItem, WorkResult
from repro.runtime.workers import Worker, create_workers

__all__ = ["DEFAULT_DISPATCH_COST_S", "GroupMetrics", "WorkerGroup"]


def _fabric_executed(kind: str, lane: str, completed: int) -> None:
    """Feed the unified registry's fabric counter (one cached child per
    lane — never a per-item allocation)."""
    if completed:
        get_registry().counter(
            "repro_fabric_items_executed_total",
            "Work items completed by the fabric, by lane",
            labelnames=("lane", "kind"),
        ).labels(lane=lane, kind=kind).inc(completed)


def _fabric_inflight(lane: str, depth: int) -> None:
    """Per-lane in-flight-depth gauge: how many dispatch chunks the lane
    currently has sent but not collected."""
    get_registry().gauge(
        "repro_fabric_inflight_chunks",
        "Dispatch chunks currently in flight, by lane",
        labelnames=("lane",),
    ).labels(lane=lane).set(depth)


_WINDOW_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


def _fabric_window_occupancy(lane: str, depth: int) -> None:
    """Window-occupancy histogram, observed at each chunk send: the
    in-flight depth the chunk joined (1 = stop-and-wait behavior)."""
    get_registry().histogram(
        "repro_fabric_window_occupancy",
        "In-flight window depth observed at each chunk send, by lane",
        labelnames=("lane",),
        buckets=_WINDOW_BUCKETS,
    ).labels(lane=lane).observe(float(depth))


#: Per-chunk fabric dispatch cost — roughly one warmed process-lane
#: round trip on a laptop-class host.  Feeds the window credit and the
#: sweep's shard sizing; it only moves scheduling, never an output.
DEFAULT_DISPATCH_COST_S = 2e-3

#: Heartbeat and probation ping budget per lane.
_PING_TIMEOUT_S = 5.0

#: Lanes an item may crash before it is failed as poison.
_MAX_ATTEMPTS = 3


@dataclass
class GroupMetrics:
    """Scheduling counters, updated live under the group lock."""

    executed: dict = field(default_factory=dict)   # worker name -> items
    stolen: int = 0                                # items taken from peers
    requeued: int = 0                              # items moved off a crash
    retries: int = 0                               # re-executions (attempt>1)
    poisoned: int = 0                              # retry budget exhausted
    worker_crashes: int = 0                        # lanes evicted
    lanes_added: int = 0                           # lanes admitted live
    lanes_removed: int = 0                         # lanes drained out live
    readmitted: int = 0                            # evictions undone
    batched: int = 0                               # items shipped in chunks
    pipelined: int = 0                             # items sent with >=1
                                                   # chunk already in flight
    last_heartbeat: dict = field(default_factory=dict)  # name -> monotonic

    def to_dict(self) -> dict:
        # last_heartbeat holds raw time.monotonic() readings — opaque
        # outside this process — so liveness is exported as an *age* in
        # seconds per lane, which a snapshot reader can act on directly.
        now = time.monotonic()
        return {
            "executed": dict(self.executed),
            "stolen": self.stolen,
            "requeued": self.requeued,
            "retries": self.retries,
            "poisoned": self.poisoned,
            "worker_crashes": self.worker_crashes,
            "lanes_added": self.lanes_added,
            "lanes_removed": self.lanes_removed,
            "readmitted": self.readmitted,
            "batched": self.batched,
            "pipelined": self.pipelined,
            "heartbeat_age_s": {
                name: round(max(0.0, now - seen), 3)
                for name, seen in self.last_heartbeat.items()},
        }


class _Pending:
    """One queued item plus its completion future and retry budget."""

    __slots__ = ("item", "future", "attempts")

    def __init__(self, item: WorkItem) -> None:
        self.item = item
        self.future: Future = Future()
        self.attempts = 0


class WorkerGroup:
    """Schedules :class:`WorkItem` batches across worker lanes.

    Each lane keeps a credit of dispatch chunks in flight, derived from
    :data:`DEFAULT_DISPATCH_COST_S` vs. that lane's measured service
    time — enough chunks to hide dispatch/wire overhead behind compute,
    no more — and capped by the executor's ``pipeline_depth`` (thread
    1, process 2, remote 8).  That credit is the only in-flight bound.
    Sent-but-uncollected chunks form the lane's window; unsent items
    stay on its queue, so peers steal them.  An eviction requeues the
    *entire* window, and an item whose future a peer already resolved
    is dropped at the next dispatch instead of executing again.
    Evicted lanes stay on probation and are re-admitted once a probe
    (restart + redeploy + ping) succeeds.

    Parameters
    ----------
    workers:
        Started-or-not :class:`~repro.runtime.workers.Worker` lanes (the
        group starts them).  Build from specs with
        :func:`~repro.runtime.workers.create_workers`.
    deployments:
        The deployment table registered with every lane at start — a
        plain list (positional indices, the sweep driver's contract) or
        a :class:`~repro.runtime.registry.DeploymentRegistry` (named
        multi-model routing; the group schedules against its table).
    steal:
        Idle lanes steal queued items from the busiest peer (default).
        ``False`` pins items to their assigned lane — the static-shard
        baseline the stealing benchmark is measured against (crash
        requeues still move work; correctness beats pinning).
    heartbeat_s:
        Liveness-probe period for idle lanes.
    probation_s:
        Delay before the first re-admission probe of an evicted lane
        (default: ``2 * heartbeat_s``); failed probes retry each period.
    max_batch_items:
        How many queued items a dispatcher may drain from its **own**
        queue into one ``execute_many`` chunk (one wire frame / child
        round-trip per chunk).  ``1`` restores strict item-at-a-time
        dispatch.  Stolen items always execute alone — batching never
        changes which lane runs what, so results stay bit-identical.
    chaos:
        Optional :class:`~repro.runtime.chaos.ChaosPolicy` consulted at
        the group's injection sites (dispatch kills, heartbeat
        corruption) and propagated to every lane (remote lanes consult
        it per wire exchange).  A kill or corrupted heartbeat is only
        honored while at least one *other* healthy lane exists — chaos
        degrades the group, it never totals it.
    """

    def __init__(
        self,
        workers: list[Worker],
        deployments: list[Deployment] | tuple | DeploymentRegistry = (),
        steal: bool = True,
        heartbeat_s: float = 2.0,
        probation_s: float | None = None,
        max_batch_items: int = 8,
        chaos: ChaosPolicy | None = None,
    ) -> None:
        if not workers:
            raise ConfigurationError("worker group needs >= 1 worker")
        names = [worker.name for worker in workers]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"worker names must be unique, got {names}")
        self.workers = list(workers)
        if isinstance(deployments, DeploymentRegistry):
            self.registry: DeploymentRegistry | None = deployments
            self._table = deployments.table()
        else:
            self.registry = None
            self._table = list(deployments)
        self.steal = steal
        self.heartbeat_s = heartbeat_s
        self.probation_s = (2 * heartbeat_s if probation_s is None
                            else probation_s)
        if max_batch_items < 1:
            raise ConfigurationError(
                f"max_batch_items must be >= 1, got {max_batch_items}")
        self.max_batch_items = max_batch_items
        # Per-lane EWMA of chunk service time (lane-side compute
        # seconds), feeding the credit derivation.  Keyed by lane index;
        # guarded by the group lock.
        self._service_ewma: dict[int, float] = {}
        self.chaos = chaos
        for worker in self.workers:
            worker.chaos = chaos
        self.metrics = GroupMetrics(
            executed={name: 0 for name in names})

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queues: list[deque] = [deque() for _ in self.workers]
        # Per lane: the list of _Pending items currently in flight
        # (None when idle; a chunk is the whole list).
        self._busy: list[list[_Pending] | None] = [None] * len(self.workers)
        self._dead: set[int] = set()
        self._removed: set[int] = set()      # drained out, never readmitted
        self._probation_due: dict[int, float] = {}
        self._stopping = False
        self._threads: list[threading.Thread] = []
        self._monitor_stop = threading.Event()
        self._started = False
        # Serializes table growth and lane admission against each other
        # (both re-register the deployment table with live lanes).
        self._elastic_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def size(self) -> int:
        return len(self.workers)

    @property
    def deployments(self) -> list[Deployment]:
        """The current deployment table (snapshot, index order)."""
        with self._lock:
            return list(self._table)

    def alive_workers(self) -> list[str]:
        with self._lock:
            return [worker.name for index, worker
                    in enumerate(self.workers) if index not in self._dead]

    def start(self) -> "WorkerGroup":
        """Start every lane, register deployments, spin up dispatchers.

        A lane that fails to start (e.g. an unreachable remote host) is
        marked dead immediately and counted as a crash; the group comes
        up as long as at least one lane is healthy.
        """
        if self._started:
            raise ConfigurationError("worker group already started")
        table = self.deployments
        for index, worker in enumerate(self.workers):
            try:
                worker.start()
                worker.deploy(table)
            except WorkerCrashError:
                with self._cond:
                    self._dead.add(index)
                    self.metrics.worker_crashes += 1
                    self._probation_due[index] = (time.monotonic()
                                                  + self.probation_s)
                continue
            self.metrics.last_heartbeat[worker.name] = time.monotonic()
        if len(self._dead) == len(self.workers):
            raise WorkerCrashError(
                "no worker in the group could be started")
        for index in range(len(self.workers)):
            self._spawn_dispatcher(index)
        monitor = threading.Thread(target=self._monitor,
                                   name="repro-runtime-monitor",
                                   daemon=True)
        monitor.start()
        self._threads.append(monitor)
        self._started = True
        return self

    def _spawn_dispatcher(self, index: int) -> None:
        thread = threading.Thread(
            target=self._dispatch, args=(index,),
            name=f"repro-runtime-{self.workers[index].name}",
            daemon=True)
        thread.start()
        self._threads.append(thread)

    def __enter__(self) -> "WorkerGroup":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop dispatching; queued-but-unstarted items fail fast."""
        with self._cond:
            self._stopping = True
            orphans = [pending for queue in self._queues
                       for pending in queue]
            for queue in self._queues:
                queue.clear()
            self._cond.notify_all()
        self._monitor_stop.set()
        for pending in orphans:
            if not pending.future.done():
                pending.future.set_exception(
                    WorkerCrashError("worker group stopped before the "
                                     "item was executed"))
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        for worker in list(self.workers):
            worker.close()
        self._started = False

    # ------------------------------------------------------------------
    # Elasticity: lane churn and table growth on a live group
    # ------------------------------------------------------------------
    def add_lane(self, worker: Worker | str,
                 token: str | None = None) -> str:
        """Admit a worker into the (possibly running) group; returns its
        group-unique name.

        ``worker`` is a started-or-not :class:`Worker` or a spec string
        (``"thread"``, ``"process"``, ``"host:port"``; ``token`` rides to
        remote specs).  On a running group the lane is started, receives
        the current deployment table and gets its own dispatcher; before
        ``start()`` it simply joins the initial lane set.  Admission
        failures (unreachable host, bad handshake) raise
        :class:`~repro.errors.WorkerCrashError` without touching the
        group.
        """
        if isinstance(worker, str):
            worker = create_workers([worker], token=token)[0]
        worker.chaos = self.chaos
        with self._elastic_lock:
            existing = {peer.name for peer in self.workers}
            if worker.name in existing:
                base, suffix = worker.name, 2
                while f"{base}~{suffix}" in existing:
                    suffix += 1
                worker.name = f"{base}~{suffix}"
            if not self._started:
                self.workers.append(worker)
                self._queues.append(deque())
                self._busy.append(None)
                self.metrics.executed[worker.name] = 0
                return worker.name
            worker.start()
            worker.deploy(self.deployments)
            with self._cond:
                if self._stopping:
                    worker.close()
                    raise ConfigurationError("worker group is stopped")
                self.workers.append(worker)
                self._queues.append(deque())
                self._busy.append(None)
                index = len(self.workers) - 1
                self.metrics.executed[worker.name] = 0
                self.metrics.lanes_added += 1
                self.metrics.last_heartbeat[worker.name] = time.monotonic()
                self._cond.notify_all()
            self._spawn_dispatcher(index)
        return worker.name

    def remove_lane(self, name: str) -> None:
        """Drain a lane out of a running group.

        Its queued items requeue on live peers immediately; an item it
        is executing right now completes normally (the result is kept —
        removal is graceful, not an eviction).  The lane is closed once
        its dispatcher parks and is never put on probation.  Removing
        the last live lane is refused — a group must keep executing.
        """
        with self._cond:
            matches = [i for i, worker in enumerate(self.workers)
                       if worker.name == name]
            if not matches:
                raise ConfigurationError(
                    f"no lane named {name!r} in the group")
            index = matches[0]
            if index in self._removed:
                return
            alive = [i for i in range(len(self.workers))
                     if i not in self._dead and i != index]
            if not alive:
                raise ConfigurationError(
                    f"cannot remove {name!r}: it is the last live lane")
            already_dead = index in self._dead
            self._dead.add(index)
            self._removed.add(index)
            self._probation_due.pop(index, None)
            orphans = list(self._queues[index])
            self._queues[index].clear()
            if not already_dead:
                self.metrics.lanes_removed += 1
            for pending in orphans:
                target = min(alive,
                             key=lambda i: (len(self._queues[i]), i))
                self._queues[target].append(pending)
                self.metrics.requeued += 1
            self._cond.notify_all()

    def add_deployments(self, deployments) -> list[int]:
        """Grow the deployment table mid-run; returns one table index per
        input deployment (content-equal inputs share a slot).

        The table is append-only, so indices already baked into queued
        work items stay valid; genuinely new entries are re-registered
        with every live lane before this returns (a lane that fails the
        re-deploy is evicted exactly like a crashed one).  This is what
        lets one shared group serve a heterogeneous stream of sweeps and
        serving traffic: each caller appends its models and routes by
        the returned indices.
        """
        deployments = list(deployments)
        with self._elastic_lock:
            with self._lock:
                known = {dep.fingerprint: i
                         for i, dep in enumerate(self._table)}
                indices: list[int] = []
                grew = False
                for deployment in deployments:
                    index = known.get(deployment.fingerprint)
                    if index is None:
                        index = len(self._table)
                        self._table.append(deployment)
                        known[deployment.fingerprint] = index
                        grew = True
                    indices.append(index)
                table = list(self._table)
            if grew and self._started:
                for lane, worker in enumerate(list(self.workers)):
                    with self._lock:
                        dead = lane in self._dead
                    if dead:
                        continue
                    try:
                        worker.deploy(table)
                    except WorkerCrashError as error:
                        self._evict(lane, error)
        return indices

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, item: WorkItem, worker: int | None = None) -> Future:
        """Enqueue one item; returns its completion future.

        ``worker`` pins the item to a lane index (static assignment);
        the default picks the live lane with the shortest queue.
        """
        pending = _Pending(item)
        with self._cond:
            if self._stopping:
                raise ConfigurationError("worker group is stopped")
            index = self._pick_lane(worker)
            if index is None:
                pending.future.set_exception(WorkerCrashError(
                    "no healthy worker left in the group"))
                return pending.future
            self._queues[index].append(pending)
            self._cond.notify_all()
        return pending.future

    def submit_many(self, items) -> list[Future]:
        """Enqueue a whole batch under one lock pass; returns futures.

        Items spread across live lanes by current load, landing as
        contiguous runs per lane — which is exactly what lets each
        dispatcher drain its queue into ``execute_many`` chunks (one
        wire frame per chunk) instead of paying per-item framing.
        """
        pendings = [_Pending(item) for item in items]
        if not pendings:
            return []
        with self._cond:
            if self._stopping:
                raise ConfigurationError("worker group is stopped")
            alive = [i for i in range(len(self.workers))
                     if i not in self._dead]
            if not alive:
                for pending in pendings:
                    pending.future.set_exception(WorkerCrashError(
                        "no healthy worker left in the group"))
                return [pending.future for pending in pendings]
            loads = {i: len(self._queues[i]) for i in alive}
            for pending in pendings:
                target = min(alive, key=lambda i: (
                    loads[i], self._busy[i] is not None, i))
                self._queues[target].append(pending)
                loads[target] += 1
            self._cond.notify_all()
        return [pending.future for pending in pendings]

    def run(self, items, assignment=None, result_callback=None) -> list:
        """Execute a batch of items; returns results in input order.

        ``assignment`` optionally maps each item to a lane index (static
        sharding); ``result_callback`` fires once per completed item
        from a dispatcher thread (progress reporting).
        """
        items = list(items)
        if assignment is not None and len(assignment) != len(items):
            raise ConfigurationError(
                f"{len(items)} items but {len(assignment)} assignments")
        if assignment is None:
            futures = self.submit_many(items)
        else:
            futures = [self.submit(item, worker=assignment[position])
                       for position, item in enumerate(items)]
        if result_callback is not None:
            for future in futures:
                future.add_done_callback(
                    lambda f: (result_callback(f.result())
                               if f.exception() is None else None))
        return [future.result() for future in futures]

    def _pick_lane(self, explicit: int | None) -> int | None:
        """Lane index for a new item (under the lock); None = all dead."""
        alive = [i for i in range(len(self.workers))
                 if i not in self._dead]
        if not alive:
            return None
        if explicit is not None:
            if not 0 <= explicit < len(self.workers):
                raise ConfigurationError(
                    f"worker index {explicit} out of range "
                    f"(0..{len(self.workers) - 1})")
            if explicit not in self._dead:
                return explicit
            # Pinned lane is dead: fall through to least-loaded.
        return min(alive, key=lambda i: (len(self._queues[i]),
                                         self._busy[i] is not None, i))

    # ------------------------------------------------------------------
    # Dispatch + stealing
    # ------------------------------------------------------------------
    def _next_pending(self, index: int) -> _Pending | None:
        """Own queue first, then (if enabled) steal; lock must be held."""
        queue = self._queues[index]
        if queue:
            return queue.popleft()
        if not self.steal:
            return None
        donors = [i for i in range(len(self.workers))
                  if i != index and i not in self._dead
                  and self._queues[i]]
        if not donors:
            return None
        donor = max(donors, key=lambda i: (len(self._queues[i]), -i))
        self.metrics.stolen += 1
        return self._queues[donor].pop()  # steal from the tail

    def _build_batch_locked(self, index: int, pending: _Pending):
        """Grow a dispatch chunk behind ``pending``; lock must be held.

        Chunking drains more of the OWN queue behind the first item (a
        stolen item arrives alone — its donor's queue is not ours to
        drain).  With stealing on and live peers around, take at most
        half the backlog: a chunk must amortize framing, not vacuum up
        the queue idle peers would have stolen from.  Exactly-once: an
        already-answered item (resolved by a peer while this copy sat
        queued) never reaches the lane.  Each item in the chunk is
        charged one attempt here, so the dispatcher's own frame keeps no
        reference to a settled item (and through its future, result).
        """
        candidates = [pending]
        queue = self._queues[index]
        budget = self.max_batch_items - 1
        if self.steal and any(
                i != index and i not in self._dead
                for i in range(len(self.workers))):
            budget = min(budget, (len(queue) + 1) // 2)
        while queue and budget > 0:
            candidates.append(queue.popleft())
            budget -= 1
        batch = [candidate for candidate in candidates
                 if not candidate.future.done()]
        for candidate in batch:
            candidate.attempts += 1
            if candidate.attempts > 1:
                self.metrics.retries += 1
        return batch

    def _settle_chunk(self, index: int, worker: Worker,
                      batch: list[_Pending], outcomes: list) -> None:
        """Book a completed chunk: metrics, spans, futures."""
        completed = sum(1 for outcome in outcomes
                        if isinstance(outcome, WorkResult))
        with self._cond:
            self.metrics.executed[worker.name] += completed
            if len(batch) > 1:
                self.metrics.batched += len(batch)
            self.metrics.last_heartbeat[worker.name] = time.monotonic()
            # Feed the credit derivation: EWMA of lane-side compute
            # seconds per chunk (wire/dispatch overhead excluded — the
            # window exists to hide exactly that behind this).
            service = sum(float(outcome.elapsed_s) for outcome in outcomes
                          if isinstance(outcome, WorkResult))
            if service > 0:
                prior = self._service_ewma.get(index)
                self._service_ewma[index] = (
                    service if prior is None
                    else 0.5 * prior + 0.5 * service)
        # Lane-side spans (lane_execute, remote exchange) come home on
        # the results; merge them so the submitter's flight recorder
        # holds the whole tree.  No-ops unless this process has tracing
        # on.
        tracer = _get_tracer()
        if tracer.enabled:
            for outcome in outcomes:
                if isinstance(outcome, WorkResult):
                    tracer.record_foreign(outcome.spans)
        _fabric_executed(worker.kind, worker.name, completed)
        for pending, outcome in zip(batch, outcomes):
            if pending.future.done():
                continue
            if isinstance(outcome, WorkResult):
                pending.future.set_result(outcome)
            elif isinstance(outcome, Exception):
                pending.future.set_exception(outcome)
            else:
                pending.future.set_exception(WorkerCrashError(
                    f"worker {worker.name!r} returned no "
                    f"result for item {pending.item.item_id}"))

    def _lane_window_locked(self, index: int, worker: Worker) -> int:
        """The lane's in-flight chunk credit; lock must be held.

        The credit covers :data:`DEFAULT_DISPATCH_COST_S` with chunks of
        measured service time — ``1 + ceil(dispatch / service)`` — so a
        lane whose compute dwarfs its dispatch overhead stays
        effectively stop-and-wait while a wire-bound lane keeps enough
        chunks in flight to never idle.  Clamped to the executor's
        ``pipeline_depth``; a lane with no chunk served yet starts
        stop-and-wait.
        """
        service = self._service_ewma.get(index)
        if not service:
            return 1
        credit = 1 + math.ceil(DEFAULT_DISPATCH_COST_S
                               / max(service, 1e-9))
        return max(1, min(credit, worker.pipeline_depth))

    def _dispatch(self, index: int) -> None:
        """Drive one lane: keep up to W chunks in flight.

        ``send_chunk`` ships chunk N+1 (onto the wire, into the child's
        submission queue, or onto an inline lane's own queue) while
        chunk N computes; ``collect_chunk`` reaps strictly in send
        order.  W is :meth:`_lane_window_locked`, capped at the
        executor's ``pipeline_depth``, so a depth-1 lane (inline
        threads) is stop-and-wait: send, collect, pull the next chunk.
        The window only holds chunks that have actually been *sent* —
        queued items stay on the lane's deque until the moment of send,
        so peers steal them.  ``self._busy[index]`` always mirrors the
        full in-flight window (flattened), and an eviction hands the
        whole window to the requeue machinery in one piece.
        """
        worker = self.workers[index]
        window: deque[list[_Pending]] = deque()
        while True:
            batch = None
            parked = False
            removed = False
            with self._cond:
                while True:
                    if self._stopping or index in self._dead:
                        parked = True
                        removed = index in self._removed
                        break
                    if len(window) < self._lane_window_locked(index,
                                                              worker):
                        pending = self._next_pending(index)
                        if pending is not None:
                            batch = self._build_batch_locked(index,
                                                             pending)
                            break
                    if window:
                        break  # window full or queue empty: collect
                    self._cond.wait(timeout=0.1)
            if parked:
                self._drain_window(index, worker, window, removed)
                return
            if batch is not None and not batch:
                continue  # the whole pull was already answered
            if batch:
                if (self.chaos is not None and self._others_alive(index)
                        and self.chaos.dispatch_fate(worker.name)
                        == "kill"):
                    # Hard-kill, then dispatch anyway: the send (or a
                    # later collect) fails with the lane's real crash
                    # signature (broken child pool, dead socket, killed
                    # inline lane) and the WHOLE window requeues.
                    worker.kill()
                try:
                    worker.send_chunk(
                        [pending.item for pending in batch])
                except WorkerCrashError as error:
                    in_flight = [pending for chunk in window
                                 for pending in chunk]
                    in_flight.extend(batch)
                    self._evict(index, error, in_flight=in_flight)
                    return
                except Exception as error:  # noqa: BLE001 — task-level
                    # encode failure on a healthy lane: fail the chunk,
                    # keep the lane (and its window) going.
                    for pending in batch:
                        if not pending.future.done():
                            pending.future.set_exception(error)
                    continue
                window.append(batch)
                with self._cond:
                    if len(window) > 1:
                        self.metrics.pipelined += len(batch)
                    self._sync_busy_locked(index, worker, window)
                _fabric_window_occupancy(worker.name, len(window))
                continue  # try to fill the window before collecting
            if not self._collect_oldest(index, worker, window):
                return

    def _sync_busy_locked(self, index: int, worker: Worker,
                          window: deque) -> None:
        """Mirror the in-flight window into ``_busy``; lock must be held."""
        flat = [pending for chunk in window for pending in chunk]
        self._busy[index] = flat or None
        _fabric_inflight(worker.name, len(window))

    def _collect_oldest(self, index: int, worker: Worker,
                        window: deque) -> bool:
        """Reap and settle the oldest in-flight chunk.

        A whole-chunk task failure (a typed refusal on a live
        connection: the reply was consumed in order) fails every item
        of that chunk and keeps the lane.  A lane crash hands the whole
        window to eviction and returns False — the dispatcher must exit.
        """
        chunk = window[0]
        try:
            outcomes = worker.collect_chunk()
            if (not isinstance(outcomes, list)
                    or len(outcomes) != len(chunk)):
                raise WorkerCrashError(
                    f"worker {worker.name!r} answered a misaligned chunk")
        except WorkerCrashError as error:
            in_flight = [pending for c in window for pending in c]
            window.clear()
            self._evict(index, error, in_flight=in_flight)
            return False
        except Exception as error:  # noqa: BLE001 — see docstring
            outcomes = [error] * len(chunk)
        window.popleft()
        with self._cond:
            self._sync_busy_locked(index, worker, window)
        self._settle_chunk(index, worker, chunk, outcomes)
        return True

    def _drain_window(self, index: int, worker: Worker,
                      window: deque, removed: bool) -> None:
        """Park a dispatcher: reap what is already in flight.

        Graceful exits (stop, ``remove_lane``) never abandon a sent
        chunk: every chunk in the window finishes and resolves normally
        before the dispatcher exits.  A crash mid-drain hands the rest
        of the window to eviction, which fails it outright when the
        group is stopping (there is nowhere left to requeue).  A
        removed lane is closed here, once its window is empty.
        """
        while window and self._collect_oldest(index, worker, window):
            pass
        if removed:
            worker.close()

    # ------------------------------------------------------------------
    # Crash handling + heartbeats
    # ------------------------------------------------------------------
    def _evict(self, index: int, error: Exception,
               in_flight: _Pending | list[_Pending] | None = None) -> None:
        """Mark a lane dead; requeue its work on healthy lanes.

        Monitor (heartbeat) and dispatcher (failed execute) can both
        report the same death; the first caller evicts and drains the
        queue, but the dispatcher's ``in_flight`` item — or whole chunk
        — must be placed either way: dropping one would leave its
        future unresolved forever, which is exactly the deadlock
        eviction exists to prevent.
        """
        worker = self.workers[index]
        if in_flight is None:
            in_flight = []
        elif isinstance(in_flight, _Pending):
            in_flight = [in_flight]
        with self._cond:
            first_report = index not in self._dead
            orphans: list[_Pending] = []
            if first_report:
                self._dead.add(index)
                self.metrics.worker_crashes += 1
                self._probation_due[index] = (time.monotonic()
                                              + self.probation_s)
                orphans = list(self._queues[index])
                self._queues[index].clear()
            self._busy[index] = None
            orphans[:0] = in_flight
            alive = [i for i in range(len(self.workers))
                     if i not in self._dead]
            failures = []
            for pending in orphans:
                if pending.attempts >= _MAX_ATTEMPTS:
                    self.metrics.poisoned += 1
                    failures.append((pending, WorkerCrashError(
                        f"item {pending.item.item_id} crashed "
                        f"{pending.attempts} lane(s) — retry budget "
                        f"(max_attempts={_MAX_ATTEMPTS}) exhausted; "
                        f"last: worker {worker.name!r} died ({error})")))
                elif self._stopping:
                    failures.append((pending, WorkerCrashError(
                        "worker group stopped before the item was "
                        "executed")))
                elif not alive:
                    failures.append((pending, WorkerCrashError(
                        f"worker {worker.name!r} died "
                        f"({error}) and no healthy worker could take "
                        f"item {pending.item.item_id}")))
                else:
                    target = min(alive,
                                 key=lambda i: (len(self._queues[i]), i))
                    self._queues[target].append(pending)
                    self.metrics.requeued += 1
            self._cond.notify_all()
        for pending, failure in failures:
            if not pending.future.done():
                pending.future.set_exception(failure)
        if first_report:
            worker.close()

    def _others_alive(self, index: int) -> bool:
        """Whether any healthy lane other than ``index`` exists."""
        with self._lock:
            return any(i != index and i not in self._dead
                       for i in range(len(self.workers)))

    def _monitor(self) -> None:
        """Ping idle lanes; evict the unresponsive, readmit the recovered."""
        while not self._monitor_stop.wait(self.heartbeat_s):
            for index, worker in list(enumerate(self.workers)):
                with self._lock:
                    if (self._stopping or index in self._dead
                            or self._busy[index] is not None):
                        continue
                try:
                    alive = worker.ping(timeout_s=_PING_TIMEOUT_S)
                except WorkerCrashError:
                    alive = False
                if (alive and self.chaos is not None
                        and self._others_alive(index)
                        and self.chaos.corrupt_heartbeat(worker.name)):
                    # A corrupted probe reads as a dead lane: evict a
                    # healthy host and make probation earn it back.
                    alive = False
                if alive:
                    with self._lock:
                        self.metrics.last_heartbeat[worker.name] = \
                            time.monotonic()
                else:
                    self._evict(index, WorkerCrashError(
                        "heartbeat probe failed"))
            self._probe_probation()

    def _probe_probation(self) -> None:
        """Try to re-admit evicted lanes whose probation delay elapsed.

        A probe is a full bring-up: restart the executor, re-register
        the current deployment table, answer a ping.  Success restores
        the lane with a fresh dispatcher (``metrics.readmitted``);
        failure closes it again and re-arms the probation timer — a host
        that stays down just keeps failing cheap connect attempts.
        """
        now = time.monotonic()
        with self._lock:
            due = [index for index in self._dead
                   if index not in self._removed
                   and self.workers[index].restartable
                   and self._probation_due.get(index, 0.0) <= now]
        for index in due:
            worker = self.workers[index]
            # The slow bring-up (TCP connect, pickled-table deploy) runs
            # WITHOUT the elastic lock — an unreachable host must not
            # stall add_lane/add_deployments for its connect timeout.
            try:
                worker.close()
                worker.start()
                probed_table = self.deployments
                worker.deploy(probed_table)
                if not worker.ping(timeout_s=_PING_TIMEOUT_S):
                    raise WorkerCrashError("probation ping failed")
            except (ReproError, OSError):
                worker.close()
                with self._lock:
                    self._probation_due[index] = (time.monotonic()
                                                  + self.probation_s)
                continue
            # Admission is serialized against table growth: if
            # add_deployments ran mid-probe (it skips dead lanes), the
            # probed table is stale and the lane would fail new-model
            # items typed instead of requeueing — re-deploy the current
            # table (append-only, so a length check suffices) before
            # the lane goes live.
            with self._elastic_lock:
                current_table = self.deployments
                if len(current_table) != len(probed_table):
                    try:
                        worker.deploy(current_table)
                    except (ReproError, OSError):
                        worker.close()
                        with self._lock:
                            self._probation_due[index] = (
                                time.monotonic() + self.probation_s)
                        continue
                with self._cond:
                    # remove_lane() may have decommissioned the lane
                    # while the probe was in flight — removal wins.
                    if (self._stopping or index not in self._dead
                            or index in self._removed):
                        worker.close()
                        continue
                    self._dead.discard(index)
                    self._probation_due.pop(index, None)
                    self.metrics.readmitted += 1
                    self.metrics.last_heartbeat[worker.name] = \
                        time.monotonic()
                    self._cond.notify_all()
                self._spawn_dispatcher(index)
