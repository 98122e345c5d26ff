"""The asyncio inference server: coalesce, execute, account, respond.

:class:`InferenceServer` accepts single-image requests (``submit`` /
``submit_many``), parks them in bounded per-deployment queues
(backpressure and admission limits), lets a per-deployment
:class:`~repro.serve.batcher.Batcher` coalesce them into micro-batches
under the configured policy, executes each batch on a shared pool of
warm engines (:class:`~repro.serve.pool.EnginePool`), and resolves every
request's future with an :class:`InferenceResult` — the prediction plus
the per-request slice of the batch's hardware accounting.

**Multi-model serving.**  Construct the server from a
:class:`~repro.runtime.DeploymentRegistry` and requests route by name:
``submit(image, deployment="fang:4")``.  Every deployment gets its own
queue, batcher, policy instance and metrics — batches never mix models —
while all of them share one worker-lane pool, so capacity flows to
whichever model has traffic (an idle deployment holds no engine slot).
The single-model constructor (a bare network) registers it under the
name ``"default"`` and behaves exactly as before.

Determinism contract: batching is a pure re-grouping.  The engines
return one :class:`~repro.core.engine.trace.BatchTrace` per micro-batch
whose per-image slice is the same whatever the batch shape, so a
request's prediction, cycle count and energy are identical whether it
ran alone or inside a 64-deep micro-batch (``tests/test_serve.py`` pins
this, and the load generator asserts predictions against direct
``Accelerator.run_logits`` output at runtime;
``tests/test_multimodel.py`` pins it per deployment on a shared pool).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.config import AcceleratorConfig
from repro.core.energy import trace_energy
from repro.core.engine.trace import TraceMerge
from repro.errors import (
    BackpressureError,
    DeploymentError,
    ReplicaDivergenceError,
    RequestTimeoutError,
    RolloutError,
    ServeError,
    ShapeError,
)
from repro.runtime import DeploymentRegistry, RegisteredDeployment
from repro.serve.batcher import Batcher, BatchPolicy, create_policy
from repro.serve.cache import ResultCache, ResultLedger, batch_digest
from repro.serve.metrics import MetricsSnapshot, ServerMetrics
from repro.serve.pool import EnginePool
from repro.telemetry import get_registry, get_tracer

__all__ = ["InferenceResult", "InferenceServer"]


@dataclass(frozen=True)
class InferenceResult:
    """One request's prediction plus its hardware and serving accounting.

    ``trace`` is the request's own single-image
    :class:`~repro.core.engine.trace.TraceMerge` — sliced out of the
    micro-batch it rode in, so summing the traces of N requests equals
    the merged trace of one N-image batch run exactly.  ``deployment``
    names the model that served the request.
    """

    request_id: int
    prediction: int
    logits: np.ndarray
    trace: TraceMerge
    cycles: int
    energy_pj: float
    model_latency_us: float
    queue_wait_ms: float
    service_ms: float
    latency_ms: float
    batch_size: int
    deployment: str = "default"
    #: The request's trace id when it was served traced (None otherwise)
    #: — the handle ``repro top`` / the flight recorder look it up by.
    trace_id: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready summary (logits and trace collapse to scalars)."""
        payload = {
            "request_id": self.request_id,
            "prediction": self.prediction,
            "logits": [int(v) for v in self.logits],
            "cycles": self.cycles,
            "energy_pj": self.energy_pj,
            "model_latency_us": self.model_latency_us,
            "queue_wait_ms": self.queue_wait_ms,
            "service_ms": self.service_ms,
            "latency_ms": self.latency_ms,
            "batch_size": self.batch_size,
            "deployment": self.deployment,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        return payload


@dataclass
class _Request:
    """Internal queue entry: the image plus its completion future.

    ``priority`` orders batch selection (higher first, FIFO within a
    level); ``deadline`` is the absolute ``perf_counter`` time after
    which the request must be failed with
    :class:`~repro.errors.RequestTimeoutError` instead of dispatched.
    """

    request_id: int
    image: np.ndarray
    future: asyncio.Future
    enqueued_at: float = field(default_factory=time.perf_counter)
    priority: int = 0
    timeout_ms: float | None = None
    deadline: float | None = None
    #: Client idempotency key (exactly-once): a completed key answers
    #: re-submissions from the server's result ledger.
    key: str | None = None
    #: Content digest of the admitted image (None when the result cache
    #: is disabled) — carried so ``_execute`` fills the cache without
    #: re-hashing what admission already digested.
    digest: str | None = None
    #: The request's root span (a real Span only when tracing is on —
    #: the disabled path never touches these fields).
    span: object = None
    #: perf_counter right after the queue admitted the request; with
    #: ``enqueued_at`` and the batch timestamps this yields *contiguous*
    #: stage spans whose durations sum to the end-to-end latency.
    t_admitted: float | None = None


class _DeploymentLane:
    """One deployment's serving state: queue, batcher, policy, metrics.

    A lane owns everything that must never be shared across models —
    batches form inside one lane only — while execution capacity (the
    engine pool's worker lanes) stays shared across all of them.
    """

    def __init__(self, entry: RegisteredDeployment, policy: BatchPolicy,
                 queue_depth: int, expire,
                 replicas: int = 1) -> None:
        self.entry = entry
        self.policy = policy
        self.replicas = max(1, replicas)
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=entry.max_queue or queue_depth)
        self.batcher = Batcher(self.queue, policy, expire=expire)
        # The lane's collector also feeds the unified registry under a
        # deployment label (the aggregate collector does not — labeled
        # series sum to the aggregate, double-feeding would double it).
        self.metrics = ServerMetrics(deployment=entry.name)
        self.loop_task: asyncio.Task | None = None

    @property
    def name(self) -> str:
        return self.entry.name

    @property
    def depth(self) -> int:
        return self.queue.qsize() + self.batcher.waiting


class InferenceServer:
    """Async micro-batching front-end over the functional hardware model.

    Parameters
    ----------
    network:
        A :class:`~repro.snn.spec.QuantizedNetwork` (or an object with a
        ``.network`` attribute, e.g. :class:`~repro.snn.model.SNNModel`)
        — served as the single deployment ``"default"`` — **or** a
        :class:`~repro.runtime.DeploymentRegistry` of named deployments
        for multi-model serving.
    config:
        Accelerator configuration (single-model form only); defaults to
        ``AcceleratorConfig.for_network(network)``.
    policy:
        Batching policy name (``greedy`` | ``deadline``) or a
        :class:`~repro.serve.batcher.BatchPolicy` instance.  A name
        builds one independent instance per deployment (adaptive state
        never mixes models); an instance is shared as given.
    max_batch / max_wait_ms / slo_ms:
        Policy knobs (each policy uses the subset it cares about).
    queue_depth:
        Bounded-queue capacity per deployment (a registry entry's
        ``max_queue`` overrides it — the per-model admission limit);
        ``submit(wait=True)`` blocks when full, ``submit(wait=False)``
        raises :class:`BackpressureError`.
    engines / mode / workers / token:
        Warm-engine pool shape: ``engines`` lanes of ``mode`` (``thread``
        | ``process``), or explicit runtime fabric specs via ``workers``
        (e.g. ``["thread", "host:7601"]`` to add a remote TCP engine
        worker, authenticated with ``token`` if the host requires one);
        see :class:`~repro.serve.pool.EnginePool`.
    result_cache:
        Capacity (entries) of the content-addressed result cache: a
        byte-identical image on a content-identical deployment answers
        from a bounded LRU at admission — before batching — instead of
        executing again (``0`` disables; see
        :class:`~repro.serve.cache.ResultCache`).
    """

    def __init__(
        self,
        network,
        config: AcceleratorConfig | None = None,
        backend: str = "vectorized",
        calibration: LatencyCalibration = DEFAULT_LATENCY,
        policy: str | BatchPolicy = "greedy",
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        slo_ms: float = 50.0,
        queue_depth: int = 1024,
        engines: int = 1,
        mode: str = "thread",
        workers: list[str] | None = None,
        token: str | None = None,
        replicas: int = 1,
        quorum: int | None = None,
        chaos=None,
        result_cache: int = 128,
    ) -> None:
        if isinstance(network, DeploymentRegistry):
            self.registry = network
        else:
            network = getattr(network, "network", network)
            self.registry = DeploymentRegistry()
            self.registry.register(
                "default", network=network,
                config=config or AcceleratorConfig.for_network(network),
                backend=backend, calibration=calibration)
        default = self.registry.resolve()
        # Single-model views, kept stable for existing callers: the
        # default (first-registered) deployment.
        self.network = default.deployment.network
        self.config = default.deployment.config
        self._policy_spec = policy
        self._policy_kwargs = {"max_batch": max_batch,
                               "max_wait_ms": max_wait_ms,
                               "slo_ms": slo_ms}
        self.policy = create_policy(policy, **self._policy_kwargs)
        self.queue_depth = queue_depth
        if replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {replicas}")
        if quorum is not None and not 1 <= quorum <= replicas:
            raise ServeError(
                f"quorum must be in [1, {replicas}], got {quorum}")
        #: Default replica count for every deployment (a registry
        #: entry's own ``replicas`` wins when larger).
        self.replicas = replicas
        self.quorum = quorum
        self.pool = EnginePool(registry=self.registry, size=engines,
                               mode=mode, workers=workers, token=token,
                               chaos=chaos)
        self.metrics = ServerMetrics()       # aggregate across deployments
        # Server-side exactly-once: completed InferenceResults by client
        # idempotency key, plus the keys whose first execution is still
        # in flight (a duplicate arriving mid-flight awaits that future
        # instead of re-executing).
        self._request_ledger = ResultLedger()
        self._inflight_keys: dict[str, asyncio.Future] = {}
        # Content-addressed exactly-once-by-value: byte-identical images
        # on a content-identical deployment answer from this LRU without
        # queueing, batching or executing (0 disables).
        self.result_cache = ResultCache(result_cache)
        self._lanes: dict[str, _DeploymentLane] = {}
        self._dispatch_slots: asyncio.Semaphore | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._open_requests = 0
        self._idle: asyncio.Event | None = None
        self._next_id = 0
        self._closed = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return any(lane.loop_task is not None
                   and not lane.loop_task.done()
                   for lane in self._lanes.values())

    def deployments(self) -> list[dict]:
        """JSON-ready rows describing every served deployment."""
        return self.registry.describe()

    def _lane_policy(self, entry: RegisteredDeployment) -> BatchPolicy:
        """The default entry keeps ``self.policy`` (instance injection
        and pre-registry callers observe it); other deployments get
        fresh instances so adaptive state never crosses models — unless
        the caller handed in a shared instance explicitly."""
        if entry.name == self.registry.resolve().name:
            return self.policy
        if isinstance(self._policy_spec, BatchPolicy):
            return self._policy_spec
        return create_policy(self._policy_spec, **self._policy_kwargs)

    def _build_lane(self, entry: RegisteredDeployment) -> _DeploymentLane:
        lane = _DeploymentLane(
            entry, self._lane_policy(entry), self.queue_depth,
            expire=None, replicas=max(entry.replicas, self.replicas))
        lane.batcher.expire = self._make_expire(lane)
        return lane

    async def start(self) -> "InferenceServer":
        """Warm the engine pool and begin serving; returns self."""
        if self.running:
            raise ServeError("server already running")
        self._lanes = {}
        for entry in self.registry.entries():
            lane = self._build_lane(entry)
            self._lanes[entry.name] = lane
        self._dispatch_slots = asyncio.Semaphore(self.pool.size)
        self._idle = asyncio.Event()
        self._idle.set()
        self._open_requests = 0
        self.pool.start()
        self.metrics.reset()
        # Queue depth mirrors live state, so it refreshes at scrape
        # time instead of being fed per request.
        get_registry().register_sampler(self._sample_registry)
        self._closed = False
        for lane in self._lanes.values():
            lane.loop_task = asyncio.create_task(
                self._serve_loop(lane),
                name=f"repro-serve-loop-{lane.name}")
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` (default) finish queued work first."""
        lanes = [lane for lane in self._lanes.values()
                 if lane.loop_task is not None]
        if not lanes:
            return
        self._closed = True  # refuse new submits immediately
        if drain:
            await self._idle.wait()
        for lane in lanes:
            lane.loop_task.cancel()
        await asyncio.gather(*(lane.loop_task for lane in lanes),
                             return_exceptions=True)
        for lane in lanes:
            lane.loop_task = None
        for task in list(self._dispatch_tasks):
            task.cancel()
        if self._dispatch_tasks:
            await asyncio.gather(*self._dispatch_tasks,
                                 return_exceptions=True)
        self._dispatch_tasks.clear()
        # Fail anything still queued — including requests whose
        # submitters were parked on a full queue: each drained slot
        # wakes a parked put(), whose request lands on a later pass of
        # this loop.  Only reachable with drain=False (a drain already
        # waited the open count down to zero).
        while self._open_requests > 0:
            leftovers = []
            for lane in lanes:
                leftovers.extend(lane.batcher.drain_waiting())
                while not lane.queue.empty():
                    leftovers.append(lane.queue.get_nowait())
            for request in leftovers:
                if not request.future.done():
                    request.future.set_exception(
                        ServeError("server stopped before request ran"))
                self._request_done()
            await asyncio.sleep(0)  # let woken putters deposit
        self._dispatch_slots = None
        self.pool.shutdown()

    async def __aenter__(self) -> "InferenceServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def _check_image(self, lane: _DeploymentLane,
                     image: np.ndarray) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)
        expected = lane.entry.deployment.network.input_shape
        if image.shape != expected:
            raise ShapeError(
                f"deployment {lane.name!r} expects one image shaped "
                f"{expected}, got {image.shape} (submit() takes single"
                " images; batching is the server's job)")
        return image

    def _resolve_lane(self, deployment: str | int | None
                      ) -> _DeploymentLane:
        entry = self.registry.resolve(deployment)
        lane = self._lanes.get(entry.name)
        if lane is None:
            # Registered into the (public, growable) registry after
            # start(): the typed error keeps the TCP handler answering
            # instead of leaking a KeyError past its except clause.
            raise DeploymentError(
                f"deployment {entry.name!r} was registered after the "
                "server started but is not serving; register live "
                "models through server.add_deployment() (or the TCP "
                "'deploy' op) so they get a serving lane")
        return lane

    async def submit(self, image: np.ndarray,
                     wait: bool = True,
                     timeout_ms: float | None = None,
                     priority: int = 0,
                     deployment: str | int | None = None,
                     key: str | None = None,
                     trace: dict | None = None,
                     ) -> InferenceResult:
        """Infer one ``(C, H, W)`` image; resolves when its batch ran.

        ``deployment`` names the model (default: the first-registered
        one); an unknown name raises the typed
        :class:`~repro.errors.DeploymentError`.  ``wait=True`` applies
        backpressure by awaiting space in that deployment's bounded
        queue; ``wait=False`` raises :class:`BackpressureError` when it
        is full (and counts the rejection in both the aggregate and the
        deployment's metrics).

        ``timeout_ms`` bounds the queue wait: a request still waiting
        for a batch slot when the deadline passes fails with
        :class:`~repro.errors.RequestTimeoutError` (counted in
        ``timed_out``) instead of lingering.  ``priority`` biases batch
        selection — higher values dispatch first, FIFO within a level.

        ``key`` is an optional client idempotency key (exactly-once): a
        key that already completed is answered from the server's result
        ledger without executing anything; a key whose first submission
        is still in flight awaits that submission's answer instead of
        executing a second copy.  Duplicated frames and client retries
        after a reconnect therefore cost one lookup, never one
        inference.

        ``trace`` is an optional propagation context (``{"trace_id",
        "span_id"}`` off the wire): with tracing enabled the request's
        whole server-side story — admission, batch wait, dispatch,
        execute (including the fabric lane that ran it), reply — lands
        in that trace; disabled, the field is ignored at zero cost.
        """
        if self._closed:
            raise ServeError("server is not running (call start())")
        if timeout_ms is not None and timeout_ms <= 0:
            raise ServeError(
                f"timeout_ms must be > 0, got {timeout_ms}")
        lane = self._resolve_lane(deployment)
        if key:
            recorded = self._request_ledger.get(key)
            if recorded is not None:
                self.metrics.record_deduped()
                lane.metrics.record_deduped()
                return recorded
            inflight = self._inflight_keys.get(key)
            if inflight is not None and not inflight.done():
                self.metrics.record_deduped()
                lane.metrics.record_deduped()
                # shield: the duplicate caller going away must not
                # cancel the original submission's execution.
                return await asyncio.shield(inflight)
        image = self._check_image(lane, image)
        digest = None
        if self.result_cache.enabled:
            # Content-addressed admission: a byte-identical image on a
            # content-identical deployment replays the cached answer —
            # no queue, no batch, no engine.  The replayed result keeps
            # the deterministic fields (prediction, logits, trace,
            # cycles, energy) verbatim and re-stamps the serving
            # accounting with this request's own (near-zero) timings.
            digest = batch_digest(image)
            cached = self.result_cache.get(
                lane.entry.deployment.fingerprint, digest)
            if cached is not None:
                return self._replay_cached(lane, cached, key=key,
                                           trace=trace)
        loop = asyncio.get_running_loop()
        request = _Request(request_id=self._next_id, image=image,
                           future=loop.create_future(),
                           priority=int(priority),
                           timeout_ms=timeout_ms,
                           key=key or None,
                           digest=digest)
        if timeout_ms is not None:
            request.deadline = request.enqueued_at + timeout_ms / 1e3
        tracer = get_tracer()
        if tracer.enabled:
            request.span = tracer.span(
                "request", context=trace,
                attrs={"deployment": lane.name,
                       "request_id": request.request_id},
                started_at=request.enqueued_at)
        self._next_id += 1
        self._request_opened()
        if request.key:
            self._inflight_keys[request.key] = request.future
        try:
            if wait:
                await lane.queue.put(request)
            else:
                try:
                    lane.queue.put_nowait(request)
                except asyncio.QueueFull:
                    self.metrics.record_rejected()
                    lane.metrics.record_rejected()
                    raise BackpressureError(
                        f"deployment {lane.name!r} queue full "
                        f"({lane.queue.maxsize} deep); retry, or "
                        "submit(wait=True) for backpressure"
                    ) from None
        except BaseException:
            if request.key:
                self._inflight_keys.pop(request.key, None)
            if request.span:
                request.span.set(rejected=True)
                request.span.finish(ok=False)
            self._request_done()
            raise
        if request.span:
            request.t_admitted = time.perf_counter()
        try:
            return await asyncio.shield(request.future)
        except asyncio.CancelledError:
            # Only shielded keyed requests keep running for duplicate
            # awaiters; an unkeyed caller's cancellation propagates.
            if not request.key and not request.future.done():
                request.future.cancel()
            raise

    def _replay_cached(self, lane: _DeploymentLane,
                       cached: InferenceResult,
                       key: str | None,
                       trace: dict | None) -> InferenceResult:
        """Answer a submission from the result cache.

        The deterministic fields (prediction, logits, trace, cycles,
        energy, model latency) replay verbatim — the fabric contract
        says they could not have come out differently — while the
        serving accounting is this request's own: zero queue wait, zero
        service, a fresh request id.  A keyed hit is also recorded in
        the idempotency ledger so later retries of the key dedup
        through either door.
        """
        request_id = self._next_id
        self._next_id += 1
        trace_id = None
        tracer = get_tracer()
        if tracer.enabled:
            span = tracer.span(
                "request", context=trace,
                attrs={"deployment": lane.name,
                       "request_id": request_id, "cached": True})
            trace_id = span.trace_id
            span.finish()
        result = InferenceResult(
            request_id=request_id,
            prediction=cached.prediction,
            logits=cached.logits,
            trace=cached.trace,
            cycles=cached.cycles,
            energy_pj=cached.energy_pj,
            model_latency_us=cached.model_latency_us,
            queue_wait_ms=0.0,
            service_ms=0.0,
            latency_ms=0.0,
            batch_size=1,
            deployment=lane.name,
            trace_id=trace_id,
        )
        for metrics in (self.metrics, lane.metrics):
            metrics.record_cached()
            metrics.record(latency_ms=0.0, queue_wait_ms=0.0,
                           service_ms=0.0, batch_size=1)
        if key:
            self._request_ledger.record(key, result)
        return result

    async def submit_many(self, images: np.ndarray,
                          wait: bool = True,
                          timeout_ms: float | None = None,
                          priority: int = 0,
                          deployment: str | int | None = None
                          ) -> list[InferenceResult]:
        """Submit a pre-formed group of images; order-preserving.

        All submissions settle before this returns; if any failed (e.g.
        ``wait=False`` backpressure rejections), the first error is
        raised *after* the siblings finished — nothing keeps running in
        the background and no result is silently dropped mid-flight.
        """
        settled = await asyncio.gather(
            *(self.submit(image, wait=wait, timeout_ms=timeout_ms,
                          priority=priority, deployment=deployment)
              for image in images),
            return_exceptions=True)
        for outcome in settled:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(settled)

    # ------------------------------------------------------------------
    # Elastic serving capacity
    # ------------------------------------------------------------------
    async def add_engine_lane(self, worker_or_spec) -> str:
        """Grow serving capacity on the running server; returns the lane
        name.

        Admits the lane into the engine pool *and* releases one dispatch
        slot, so the new capacity is actually used — in-flight batches
        are capped at the live lane count, not the start-time size.
        The admission handshake (a TCP connect plus a pickled-table
        deploy, for remote lanes) runs on a worker thread so in-flight
        serving never stalls behind it.
        """
        if self._dispatch_slots is None:
            raise ServeError("server is not running (call start())")
        name = await asyncio.get_running_loop().run_in_executor(
            None, self.pool.add_lane, worker_or_spec)
        if self._dispatch_slots is None:   # stopped while admitting
            raise ServeError("server stopped during lane admission")
        self._dispatch_slots.release()
        return name

    async def remove_engine_lane(self, name: str) -> None:
        """Drain one lane out of the running server.

        Waits for a dispatch slot first (shrinking the in-flight budget
        by one), then removes the lane — its queued batches requeue on
        the survivors, an executing batch finishes normally.
        """
        if self._dispatch_slots is None:
            raise ServeError("server is not running (call start())")
        await self._dispatch_slots.acquire()
        try:
            self.pool.remove_lane(name)
        except BaseException:
            self._dispatch_slots.release()
            raise

    async def add_deployment(self, name: str, network=None,
                             deployment=None,
                             **register_kwargs) -> dict:
        """Register a deployment and serve it on the RUNNING server.

        The blue/green registration step: the model is warm-compiled
        and pushed to every live engine lane (off-loop — in-flight
        serving never stalls behind the deploy), then gets its own
        serving lane (queue, batcher, metrics, loop) — all without
        pausing traffic on existing deployments.  Returns the new
        entry's description.  Idempotent for same-content re-adds.
        """
        if self._closed:
            raise ServeError("server is not running (call start())")
        if network is not None:
            register_kwargs["network"] = network
        entry = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.pool.add_deployment(
                name, deployment, **register_kwargs))
        if self._closed:
            raise ServeError("server stopped during deployment "
                             "registration")
        if entry.name not in self._lanes:
            lane = self._build_lane(entry)
            self._lanes[entry.name] = lane
            lane.loop_task = asyncio.create_task(
                self._serve_loop(lane),
                name=f"repro-serve-loop-{lane.name}")
        return entry.describe()

    async def rollout(self, alias: str, to: str,
                      drain: bool = True) -> dict:
        """Blue/green: atomically point ``alias`` at deployment ``to``.

        The flip is atomic in the registry, so every request sees the
        old target or the new one — none see neither, none are dropped.
        Requests already queued on the old target finish there; with
        ``drain`` (default) this waits until the old lane's queue is
        empty before returning, so callers know the old model is idle
        and safe to retire.  ``to`` must already be serving (see
        :meth:`add_deployment`) — flipping to a non-serving name is
        refused with :class:`~repro.errors.RolloutError` instead of
        blackholing traffic.
        """
        if self._closed:
            raise ServeError("server is not running (call start())")
        if to not in self._lanes:
            raise RolloutError(
                f"cannot roll {alias!r} to {to!r}: target is not "
                f"serving (serving: {', '.join(self._lanes) or '(none)'}"
                "); add_deployment() it first")
        previous = self.registry.alias(alias, to)
        drained = None
        if drain and previous and previous != to:
            old = self._lanes.get(previous)
            if old is not None:
                while old.depth > 0:
                    await asyncio.sleep(0.005)
                drained = previous
        return {"alias": alias, "from": previous, "to": to,
                "drained": drained}

    def snapshot(self, deployment: str | int | None = None
                 ) -> MetricsSnapshot:
        """Metrics snapshot including the live queue depth.

        With ``deployment`` given, that model's own snapshot; otherwise
        the aggregate — which, on a multi-model server, carries every
        deployment's snapshot under ``per_deployment`` and the runtime
        fabric's scheduling counters (requeued / retries / poisoned /
        stolen, plus the request-ledger and result-cache state) under
        ``fabric``.
        """
        if deployment is not None:
            lane = self._resolve_lane(deployment)
            return lane.metrics.snapshot(queue_depth=lane.depth)
        depth = sum(lane.depth for lane in self._lanes.values())
        per_deployment = None
        if len(self.registry) > 1:
            per_deployment = {
                lane.name: lane.metrics.snapshot(
                    queue_depth=lane.depth).to_dict()
                for lane in self._lanes.values()}
        fabric = None
        if self.pool.started:
            fabric = self.pool.group_metrics()
            fabric["request_ledger"] = self._request_ledger.to_dict()
            fabric["result_cache"] = self.result_cache.to_dict()
        return self.metrics.snapshot(
            queue_depth=depth, worker_crashes=self.pool.worker_crashes,
            per_deployment=per_deployment, fabric=fabric)

    def _sample_registry(self) -> None:
        """Scrape-time gauge refresh (registered as a registry sampler):
        per-deployment queue depth plus the tracer's span total."""
        registry = get_registry()
        depth = registry.gauge(
            "repro_queue_depth",
            "Requests queued or waiting in the batcher, per deployment",
            labelnames=("deployment",))
        for lane in list(self._lanes.values()):
            depth.labels(deployment=lane.name).set(lane.depth)
        registry.gauge(
            "repro_spans_finished",
            "Spans recorded by the process-wide tracer",
        ).set(get_tracer().spans_finished)

    # ------------------------------------------------------------------
    # Serving internals
    # ------------------------------------------------------------------
    def _request_opened(self) -> None:
        self._open_requests += 1
        self._idle.clear()

    def _request_done(self) -> None:
        self._open_requests -= 1
        if self._open_requests <= 0:
            self._idle.set()

    def _make_expire(self, lane: _DeploymentLane):
        def expire(request: _Request) -> None:
            """Batcher hook: a request's queue-wait deadline passed."""
            self.metrics.record_timeout()
            lane.metrics.record_timeout()
            if request.key:
                # No result to ledger: a retry of this key re-executes.
                self._inflight_keys.pop(request.key, None)
            if request.span:
                request.span.set(timed_out=True)
                request.span.finish(ok=False)
            if not request.future.done():
                request.future.set_exception(RequestTimeoutError(
                    f"request {request.request_id} timed out after "
                    f"{request.timeout_ms:.0f} ms waiting for dispatch"))
            self._request_done()
        return expire

    async def _serve_loop(self, lane: _DeploymentLane) -> None:
        # In-flight batches are capped at the engine-pool size *before*
        # the next batch forms: while every engine is busy, requests
        # stay in the bounded queue (where submit() feels the
        # backpressure) instead of draining into parked dispatch tasks.
        # The slot is only acquired once this deployment actually has
        # work (wait_for_work), so an idle model holds no capacity and
        # the pool flows to whichever deployments have traffic.
        while True:
            await lane.batcher.wait_for_work()
            await self._dispatch_slots.acquire()
            try:
                # wait=False: if every request this lane was holding
                # expired while we waited for the slot, hand the slot
                # back and re-park instead of blocking on an empty
                # queue with the slot held — that would starve every
                # other deployment of the pool.
                batch = await lane.batcher.next_batch(wait=False)
            except BaseException:
                self._dispatch_slots.release()
                raise
            if batch is None:
                self._dispatch_slots.release()
                continue
            task = asyncio.create_task(self._execute(lane, batch))
            self._dispatch_tasks.add(task)
            task.add_done_callback(self._finish_dispatch)

    def _finish_dispatch(self, task: asyncio.Task) -> None:
        self._dispatch_tasks.discard(task)
        self._dispatch_slots.release()

    async def _execute(self, lane: _DeploymentLane,
                       batch: list[_Request]) -> None:
        t_dispatch = time.perf_counter()
        images = np.stack([request.image for request in batch])
        started = time.perf_counter()
        # One traced request leads the batch: the batch-level execute
        # span lives in ITS trace and its context rides down into the
        # fabric (WorkItem.trace), so the lane that runs the batch —
        # thread, forked child or remote host — appends its own span to
        # the same tree.  Sibling traced requests get their own
        # (retroactive) execute stage spans after the batch returns.
        tracer = get_tracer()
        lead = None
        exec_span = None
        batch_trace = None
        if tracer.enabled:
            lead = next((r for r in batch if r.span), None)
            if lead is not None:
                exec_span = tracer.span(
                    "execute", parent=lead.span,
                    attrs={"batch_size": len(batch),
                           "deployment": lane.name},
                    started_at=started)
                batch_trace = exec_span.context()
        try:
            if lane.replicas > 1:
                logits, engine_trace = await self.pool.run_batch_replicated(
                    images, deployment=lane.entry.index,
                    replicas=lane.replicas, quorum=self.quorum,
                    trace=batch_trace)
            else:
                logits, engine_trace = await self.pool.run_batch(
                    images, deployment=lane.entry.index,
                    trace=batch_trace)
        except BaseException as error:
            # Fail the whole batch but keep serving — and on
            # cancellation (stop(drain=False) tears down in-flight
            # dispatches) still resolve every future so concurrent
            # submit() callers unblock instead of hanging forever.
            if isinstance(error, ReplicaDivergenceError):
                self.metrics.record_divergence()
                lane.metrics.record_divergence()
            if exec_span is not None:
                exec_span.set(error=repr(error))
                exec_span.finish(ok=False)
            for request in batch:
                if request.key:
                    self._inflight_keys.pop(request.key, None)
                if request.span:
                    request.span.set(error=repr(error))
                    request.span.finish(ok=False)
                if not request.future.done():
                    request.future.set_exception(
                        ServeError(f"batch execution failed: {error!r}"))
                self._request_done()
            if isinstance(error, asyncio.CancelledError):
                raise
            return
        finished = time.perf_counter()
        service_ms = (finished - started) * 1e3
        lane.policy.observe(len(batch), finished - started)
        if exec_span is not None:
            exec_span.set(service_ms=service_ms)
            exec_span.finish(at=finished)
        deployment = lane.entry.deployment
        weight_bits = deployment.network.weight_bits
        for i, request in enumerate(batch):
            trace = engine_trace.image(i)
            cycles = trace.total_cycles
            queue_wait_ms = (started - request.enqueued_at) * 1e3
            latency_ms = (finished - request.enqueued_at) * 1e3
            result = InferenceResult(
                request_id=request.request_id,
                prediction=int(logits[i].argmax()),
                logits=logits[i],
                trace=trace,
                cycles=cycles,
                energy_pj=trace_energy(trace,
                                       weight_bits=weight_bits).total_pj,
                model_latency_us=cycles * deployment.config.cycle_time_us,
                queue_wait_ms=queue_wait_ms,
                service_ms=service_ms,
                latency_ms=latency_ms,
                batch_size=len(batch),
                deployment=lane.name,
                trace_id=(request.span.trace_id if request.span
                          else None),
            )
            for metrics in (self.metrics, lane.metrics):
                metrics.record(latency_ms=latency_ms,
                               queue_wait_ms=queue_wait_ms,
                               service_ms=service_ms,
                               batch_size=len(batch))
            if request.span:
                self._finish_request_trace(
                    tracer, request, result,
                    is_lead=request is lead,
                    t_dispatch=t_dispatch, started=started,
                    finished=finished, batch_size=len(batch))
            if request.digest is not None:
                self.result_cache.put(
                    lane.entry.deployment.fingerprint, request.digest,
                    result)
            if request.key:
                # Record BEFORE resolving: a duplicate racing in after
                # the future resolves must find the ledger entry.
                self._request_ledger.record(request.key, result)
                self._inflight_keys.pop(request.key, None)
            if not request.future.done():
                request.future.set_result(result)
            self._request_done()

    @staticmethod
    def _finish_request_trace(tracer, request: _Request,
                              result: InferenceResult, is_lead: bool,
                              t_dispatch: float, started: float,
                              finished: float, batch_size: int) -> None:
        """Emit one request's *contiguous* stage spans retroactively.

        The boundaries are the timestamps the serve path already
        measures — enqueue, queue admission, batch pickup, execute
        start/end, resolution — so admission + batch + dispatch +
        execute + reply sums to the root span's duration *exactly* (the
        ±5 % acceptance bound holds by construction, the slack only
        covers the caller's own clock).
        """
        root = request.span
        t_admitted = (request.t_admitted
                      if request.t_admitted is not None
                      else request.enqueued_at)
        t_done = time.perf_counter()
        tracer.span("admission", parent=root,
                    started_at=request.enqueued_at).finish(at=t_admitted)
        tracer.span("batch", parent=root,
                    started_at=t_admitted).finish(at=t_dispatch)
        tracer.span("dispatch", parent=root,
                    started_at=t_dispatch).finish(at=started)
        if not is_lead:
            # The lead request owns the live batch-level execute span
            # (with the fabric subtree); siblings get their own stage
            # marker so every traced tree stays complete on its own.
            tracer.span("execute", parent=root,
                        attrs={"batch_size": batch_size, "shared": True},
                        started_at=started).finish(at=finished)
        tracer.span("reply", parent=root,
                    started_at=finished).finish(at=t_done)
        root.set(prediction=result.prediction, cycles=result.cycles,
                 energy_pj=result.energy_pj, batch_size=batch_size,
                 queue_wait_ms=result.queue_wait_ms,
                 service_ms=result.service_ms)
        root.finish(at=t_done)
