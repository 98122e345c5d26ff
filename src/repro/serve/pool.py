"""Warm engine pools for serving — a policy skin over the runtime fabric.

The server's asyncio loop must never block on a GEMM, so batch execution
is pushed onto a :class:`~repro.runtime.WorkerGroup` of warm worker
lanes; the pool itself only owns serving policy (the deployment table,
an in-flight cap enforced upstream by the server's dispatch slots) and
the async bridge (``concurrent.futures.Future`` → ``await``).  Executor
kinds:

* ``thread`` (default) — inline lanes over shared warm-compiled models.
  numpy releases the GIL inside its kernels, so lanes overlap real work;
  engines are stateless per ``run_batch`` call, which is what makes
  sharing safe.
* ``process`` — one forked child per lane, each holding warm engines,
  batches shipped as pickled arrays.  Sidesteps the GIL entirely.
* ``workers=[...]`` — explicit lane specs, including ``"host:port"``
  remote TCP workers (a host running ``repro worker --listen``), so one
  server can fan micro-batches out across machines.

Since the deployment-registry refactor one pool serves **many models**:
construct it from a :class:`~repro.runtime.DeploymentRegistry` and pass
``deployment=<table index>`` to :meth:`EnginePool.run_batch` — every
lane holds the whole table, so any lane can run any model's batch and
capacity flows to whichever deployment has traffic.  The single-model
constructor (``network, config``) builds a one-entry registry and keeps
its historical behavior.

A lane dying mid-batch does not fail the request: the group evicts the
lane, requeues the batch on a healthy one and counts the event — the
server surfaces the count as ``worker_crashes`` in its metrics.
"""

from __future__ import annotations

import asyncio
import itertools
import threading

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.config import AcceleratorConfig
from repro.core.engine import resolve_backend, warm_compile
from repro.core.engine.trace import BatchTrace
from repro.errors import (
    ConfigurationError,
    ReplicaDivergenceError,
    ServeError,
)
from repro.runtime import (
    DeploymentRegistry,
    RegisteredDeployment,
    WorkItem,
    WorkerGroup,
    create_workers,
)

__all__ = ["EnginePool"]


class EnginePool:
    """Warm engine lanes behind an async ``run_batch``.

    ``size``/``mode`` build a homogeneous group (``size`` lanes of
    ``mode``); ``workers`` overrides both with explicit fabric specs
    (``"thread"``, ``"process"``, ``"host:port"``, multipliers like
    ``"process:4"``).  ``registry`` replaces the single
    ``network``/``config`` pair with a full deployment table; ``token``
    is the fabric shared secret for remote lanes.
    """

    def __init__(
        self,
        network=None,
        config: AcceleratorConfig | None = None,
        backend: str = "vectorized",
        calibration: LatencyCalibration = DEFAULT_LATENCY,
        size: int = 1,
        mode: str = "thread",
        workers: list[str] | None = None,
        registry: DeploymentRegistry | None = None,
        token: str | None = None,
        chaos=None,
    ) -> None:
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        if mode not in ("thread", "process"):
            raise ConfigurationError(
                f"pool mode must be 'thread' or 'process', got {mode!r}")
        if registry is None:
            if network is None:
                raise ConfigurationError(
                    "engine pool needs a registry or a network")
            registry = DeploymentRegistry()
            registry.register(
                "default", network=network,
                config=config or AcceleratorConfig.for_network(
                    getattr(network, "network", network)),
                backend=resolve_backend(backend).name,
                calibration=calibration)
        self.registry = registry
        default = registry.resolve()
        # Single-model attributes kept for callers (and subclasses) that
        # predate the registry: they name the default deployment.
        self.network = default.deployment.network
        self.config = default.deployment.config
        self.backend = default.deployment.backend
        self.calibration = default.deployment.calibration
        self.mode = mode
        self.token = token
        #: Optional ChaosPolicy handed to the WorkerGroup (fault drills).
        self.chaos = chaos
        self.worker_specs = (list(workers) if workers
                             else [mode] * size)
        self.size = len(self.worker_specs)
        self._group: WorkerGroup | None = None
        self._item_ids = itertools.count()

    @property
    def started(self) -> bool:
        return self._group is not None

    @property
    def group(self) -> WorkerGroup | None:
        """The underlying lane group (elastic operations go through it)."""
        return self._group

    @property
    def worker_crashes(self) -> int:
        """Lanes evicted since start (dead children, dropped hosts)."""
        return self._group.metrics.worker_crashes if self._group else 0

    def group_metrics(self) -> dict:
        """The fabric's scheduling counters (diagnostics)."""
        return self._group.metrics.to_dict() if self._group else {}

    def start(self) -> None:
        """Warm-compile, build the lane group, start it; not idempotent."""
        if self.started:
            raise ServeError("engine pool already started")
        # Warm the parent-process cache first: thread lanes share these
        # compiled models; process lanes fork after it, so children
        # inherit the compiled pages copy-on-write and their deploys hit
        # the warm cache instead of recompiling.
        for deployment in self.registry.table():
            warm_compile(deployment.network, deployment.config)
        self._group = WorkerGroup(
            create_workers(self.worker_specs, token=self.token),
            deployments=self.registry, chaos=self.chaos)
        try:
            self._group.start()
        except BaseException:
            self._group = None
            raise

    def add_deployment(self, name: str, deployment=None,
                       **register_kwargs) -> RegisteredDeployment:
        """Register a deployment and push it to the **live** lane group.

        The blue/green entry point: the new model is warm-compiled,
        appended to the registry and re-registered with every running
        lane before this returns, so a subsequent alias flip lands on
        lanes that already hold it.  Safe before ``start()`` too (the
        group picks the table up when it starts).
        """
        entry = self.registry.register(name, deployment,
                                       **register_kwargs)
        if self.started:
            warm_compile(entry.deployment.network,
                         entry.deployment.config)
            self._group.add_deployments([entry.deployment])
        return entry

    async def run_batch(
        self, images: np.ndarray, deployment: int = 0,
        timeout_s: float | None = None,
        trace: dict | None = None,
    ) -> tuple[np.ndarray, BatchTrace]:
        """Execute one micro-batch on the next free warm lane.

        ``deployment`` is the registry *table index* the batch runs
        against (the server resolves names to indices before calling).
        Returns ``(logits, batch trace)``; a crashed lane
        is evicted and the batch re-runs on a healthy one before this
        resolves.  ``trace`` is an optional propagation context — the
        lane that executes the batch emits its span into that trace,
        whatever kind of lane it is.
        """
        if not self.started:
            raise ServeError("engine pool is not started")
        item = WorkItem(item_id=next(self._item_ids),
                        deployment=deployment, images=images,
                        timeout_s=timeout_s, trace=trace)
        future = self._group.submit(item)
        result = await asyncio.wrap_future(future)
        return result.logits, result.trace

    async def run_batch_replicated(
        self, images: np.ndarray, deployment: int = 0,
        replicas: int = 2, quorum: int | None = None,
        timeout_s: float | None = None,
        trace: dict | None = None,
    ) -> tuple[np.ndarray, BatchTrace]:
        """Execute one batch ``replicas`` times and runtime-assert the
        answers bit-identical before returning one of them.

        Every replica is a distinct submission that the group spreads
        over its lanes.  ``quorum`` (default: all replicas) is how many must
        *answer*: with lanes dying mid-drill, up to ``replicas -
        quorum`` replica failures are tolerated.  Any two successful
        replicas disagreeing on logits or traces — impossible unless
        something corrupted state — raises
        :class:`~repro.errors.ReplicaDivergenceError`.
        """
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {replicas}")
        need = replicas if quorum is None else quorum
        if not 1 <= need <= replicas:
            raise ConfigurationError(
                f"quorum must be in [1, {replicas}], got {quorum}")
        if replicas == 1:
            return await self.run_batch(images, deployment=deployment,
                                        timeout_s=timeout_s, trace=trace)
        if not self.started:
            raise ServeError("engine pool is not started")
        items = [WorkItem(item_id=next(self._item_ids),
                          deployment=deployment,
                          images=images, timeout_s=timeout_s,
                          trace=trace)
                 for _ in range(replicas)]
        futures = [asyncio.wrap_future(f)
                   for f in self._group.submit_many(items)]
        settled = await asyncio.gather(*futures, return_exceptions=True)
        results = [r for r in settled if not isinstance(r, BaseException)]
        if len(results) < need:
            failures = [r for r in settled
                        if isinstance(r, BaseException)]
            raise ServeError(
                f"replicated batch lost quorum: {len(results)}/"
                f"{replicas} replicas answered (need {need}); first "
                f"failure: {failures[0]!r}") from (
                    failures[0] if failures else None)
        reference = results[0]
        for position, result in enumerate(results[1:], start=2):
            if not np.array_equal(reference.logits, result.logits) or \
                    reference.trace != result.trace:
                raise ReplicaDivergenceError(
                    f"replica {position}/{len(results)} (worker "
                    f"{result.worker!r}) disagrees with replica 1 "
                    f"(worker {reference.worker!r}) on a "
                    f"deployment-{deployment} batch — deterministic "
                    "engines diverged, refusing to pick a winner")
        return reference.logits, reference.trace

    def add_lane(self, worker_or_spec) -> str:
        """Admit a lane into the running pool (elastic capacity).

        ``size`` tracks the live lane count so capacity-derived budgets
        (the server's dispatch slots) can follow; prefer
        ``InferenceServer.add_engine_lane`` from a running server — it
        grows the in-flight budget in the same step.
        """
        if not self.started:
            raise ServeError("engine pool is not started")
        name = self._group.add_lane(worker_or_spec, token=self.token)
        self.size += 1
        return name

    def remove_lane(self, name: str) -> None:
        """Drain a lane out of the running pool."""
        if not self.started:
            raise ServeError("engine pool is not started")
        self._group.remove_lane(name)
        self.size -= 1

    def shutdown(self, wait: bool = True) -> None:
        """Stop the lane group; ``wait=False`` tears down off-thread
        (group stop joins dispatchers, which can take seconds with a
        batch in flight)."""
        group, self._group = self._group, None
        if group is None:
            return
        if wait:
            group.stop()
        else:
            threading.Thread(target=group.stop,
                             name="repro-pool-shutdown",
                             daemon=True).start()
