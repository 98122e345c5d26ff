"""The fabric's unit of work: deployments, work items, work results.

Serving and sweeps used to speak different worker dialects; the fabric
reduces both to one sentence: *run this batch of images on that
deployment and send back logits plus the batch's trace*.

* :class:`Deployment` — everything that determines a result: the
  quantized network, the accelerator config, the engine backend and the
  latency calibration.  Registered with every worker once, up front, so
  work items only need an index into the table.
* :class:`WorkItem` — one executable batch: a deployment index, the
  image array, an optional execution timeout and opaque caller metadata
  (the sweep driver parks its shard bookkeeping there; metadata never
  crosses a process or host boundary).
* :class:`WorkResult` — integer logits, one
  :class:`~repro.core.engine.trace.BatchTrace` (shared per-layer
  charges plus an ``(N, L)`` adder-ops matrix), wall time and the
  identity of whoever ran it.  The batch trace is the smallest form
  that still lets serving slice per-request accounting and sweeps fold
  shard totals — both bit-identical to a local run.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.config import AcceleratorConfig
from repro.core.engine import warm_engine
from repro.core.engine.trace import BatchTrace, TraceMerge
from repro.errors import DeploymentError

__all__ = ["Deployment", "ResultLedger", "WorkItem", "WorkResult",
           "chunk_timeout_s", "execute_item", "next_idempotency_key"]


def chunk_timeout_s(items) -> float | None:
    """The execution budget for a chunk shipped as one exchange.

    A chunk answers in a single reply, so the item with the *tightest*
    budget bounds when the whole reply must land — the old aggregation
    (sum the budgets; unbounded if any is) both inflated the deadline
    linearly with chunk size and let one unbounded item disable every
    sibling's protection, which turns into unbounded stalls once
    windowed dispatch keeps several chunks in flight.  ``None`` only
    when *no* item carries a budget.
    """
    budgets = [item.timeout_s for item in items
               if item.timeout_s is not None]
    return float(min(budgets)) if budgets else None

_KEY_COUNTER = itertools.count()


def next_idempotency_key() -> str:
    """A process-unique idempotency key (``pid-counter``).

    Every :class:`WorkItem` carries one by default; two *distinct*
    submissions never share a key, while a re-submission of the *same*
    item (crash requeue, duplicated frame, client retry) carries the
    original key — which is what lets a completed-result ledger answer
    the duplicate without executing it twice.
    """
    return f"{os.getpid():x}-{next(_KEY_COUNTER):x}"


@dataclass(frozen=True)
class Deployment:
    """One runnable model: network + config + engine + calibration."""

    network: object                      # QuantizedNetwork (picklable)
    config: AcceleratorConfig
    backend: str = "vectorized"
    calibration: LatencyCalibration = DEFAULT_LATENCY

    def engine(self):
        """This deployment's engine, via the warm-instance cache.

        Workers call this lazily per item.  The cache is keyed by
        :attr:`fingerprint`, which this instance hashes once, so a
        repeat call is a dict lookup — whether the worker is a thread,
        a forked process or a remote host — and reuse is bit-identical
        (the warm-cache contract).
        """
        return warm_engine(self.network, self.config, self.backend,
                           self.calibration, key=self.fingerprint)

    @cached_property
    def fingerprint(self) -> str:
        """Content fingerprint: the warm-cache key plus the backend name
        (an alias such as ``sparse`` reads as the engine it names).

        Two deployments with the same fingerprint produce bit-identical
        results by the warm-cache contract — the registry and the group
        use this to share one deployment-table slot between
        content-equal registrations, however many names point at it,
        and :meth:`engine` uses it as the warm-cache key.
        (``cached_property`` writes straight into ``__dict__``, so the
        hash over a VGG's weights is paid once per instance even though
        the dataclass is frozen.)
        """
        from repro.core.engine.base import resolve_backend  # avoid cycle
        from repro.core.engine.cache import content_key

        backend = resolve_backend(self.backend).name
        return f"{backend}:{content_key(self.network, self.config, self.calibration)}"


@dataclass(frozen=True)
class WorkItem:
    """One batch to execute on one registered deployment."""

    item_id: int
    deployment: int                      # index into the worker's table
    images: np.ndarray                   # (N, C, H, W) floats in [0, 1]
    timeout_s: float | None = None       # per-item execution budget
    meta: dict = field(default_factory=dict)  # caller-side only
    #: Trace propagation context (``{"trace_id", "span_id"}``) — unlike
    #: ``meta`` this *does* cross process and host boundaries, so the
    #: lane-side execute span lands in the submitter's trace whether the
    #: lane is a thread, a forked child or a remote TCP worker.
    trace: dict | None = None
    #: Idempotency key — stable across re-submissions of the *same*
    #: logical item, unique across distinct ones.  The group's result
    #: ledger dedups on it, so a duplicated or retried item is answered
    #: from the ledger instead of executing twice.
    key: str = field(default_factory=next_idempotency_key)

    @property
    def num_images(self) -> int:
        return int(self.images.shape[0])


@dataclass
class WorkResult:
    """What comes back for one completed :class:`WorkItem`."""

    item_id: int
    logits: np.ndarray                   # (N, classes) integer logits
    trace: BatchTrace                    # the batch's per-layer trace
    elapsed_s: float
    worker: str = ""                     # group-unique worker name
    pid: int = 0                         # executing process id
    #: Lane-side span dicts for a traced item (empty when the submitter
    #: did not trace).  Rides the pickle back from process children and
    #: the ``spans`` reply field back from remote workers, then merges
    #: into the submitter's flight recorder.
    spans: list = field(default_factory=list)

    @property
    def predictions(self) -> np.ndarray:
        return self.logits.argmax(axis=1).astype(np.int64)

    def merged_trace(self) -> TraceMerge:
        """The whole item as one aggregate (exact integer sums)."""
        return self.trace.merged()


class ResultLedger:
    """Bounded completed-result map keyed by idempotency key.

    The exactly-once backstop: whoever completes work records the result
    under the item's key; whoever is handed the *same* key again — a
    crash-requeued item that already finished, a duplicated wire frame,
    a client re-submission after reconnect — is answered from the ledger
    instead of executing again.  Results are bit-identical either way
    (the fabric contract), so the ledger changes *work done*, never
    *answers given*.

    Capacity-bounded LRU: the oldest entry falls out once ``capacity``
    is exceeded, keeping a long-lived server's memory flat.  A key
    falling out re-opens the (tiny) window for duplicate execution —
    which is safe, just wasteful — so size the capacity to cover the
    client retry horizon, not the full run.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"ledger capacity must be >= 1, "
                             f"got {capacity}")
        self.capacity = capacity
        self.duplicates = 0              # lookups answered from the ledger
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, key: str, result) -> bool:
        """Store a completed result; False if the key was already there
        (a duplicate execution completed — the stored result wins)."""
        if not key:
            return True
        with self._lock:
            if key in self._entries:
                self.duplicates += 1
                return False
            self._entries[key] = result
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return True

    def get(self, key: str):
        """The recorded result for a key (None = never completed here);
        a hit counts as a deduplicated answer."""
        if not key:
            return None
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.duplicates += 1
            return result

    def peek(self, key: str) -> bool:
        """Whether a key has completed, without counting a duplicate."""
        with self._lock:
            return key in self._entries

    def to_dict(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries),
                    "capacity": self.capacity,
                    "duplicates": self.duplicates}


def execute_item(deployments, item: WorkItem,
                 worker: str = "") -> WorkResult:
    """Run one item against a deployment table (any executor's core).

    Thread workers call this inline, process workers call it in the
    child, the TCP worker server calls it per request — one code path,
    so every executor produces byte-identical results by construction.
    A deployment index outside the registered table raises a typed
    :class:`~repro.errors.DeploymentError` (a task-level failure: the
    lane stays healthy, only the misrouted item's future fails).
    """
    if not 0 <= item.deployment < len(deployments):
        raise DeploymentError(
            f"work item {item.item_id} routed to deployment "
            f"{item.deployment}, but the table holds "
            f"{len(deployments)} deployment(s)")
    deployment = deployments[item.deployment]
    engine = deployment.engine()
    span = None
    if item.trace:
        # Trace on request: the item carries context, so the lane-side
        # execute span is created whether or not *this* process has
        # tracing switched on (remote daemons usually don't).
        from repro.telemetry import Span
        span = Span.child_of(item.trace, "lane_execute")
    started = time.perf_counter()
    logits, trace = engine.run_merged(item.images)
    elapsed_s = time.perf_counter() - started
    spans: list = []
    if span is not None:
        from repro.core.energy import trace_energy
        merged = trace.merged()
        span.set(worker=worker, backend=deployment.backend,
                 deployment=item.deployment, num_images=item.num_images,
                 cycles=int(merged.total_cycles),
                 spikes=int(merged.total_adder_ops),
                 energy_pj=float(trace_energy(merged).total_pj))
        spans.append(span.finish().to_dict())
    return WorkResult(
        item_id=item.item_id,
        logits=logits,
        trace=trace,
        elapsed_s=elapsed_s,
        worker=worker,
        pid=os.getpid(),
        spans=spans,
    )
