"""Serving metrics: throughput, queue depth, batch sizes, latency tails.

:class:`ServerMetrics` is the live collector the server feeds after every
completed request; :meth:`ServerMetrics.snapshot` freezes it into a
:class:`MetricsSnapshot` — the JSON-serializable record the CLI prints,
the benchmark persists to ``artifacts/bench_serve.json`` and the load
generator asserts SLOs against.

Latencies are kept exactly (one float per request) over a bounded
sliding window (``window`` most recent requests, default 100k): within
the window p99 is a real order statistic, not a sketch estimate — and
the window keeps the long-running ``repro serve`` daemon's memory flat
instead of growing a list per request forever.  Benchmarks and tests
complete fewer requests than the default window, so for them the
percentiles are exact over the whole run.  ``completed``/``rejected``
and the batch histogram are lifetime totals regardless.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["MetricsSnapshot", "ServerMetrics"]


def _registry_instruments(deployment: str) -> dict:
    """Cached registry children for one deployment's serving counters."""
    from repro.telemetry import get_registry
    from repro.telemetry.metrics import DEFAULT_LATENCY_BUCKETS_MS

    registry = get_registry()
    labels = {"deployment": deployment}
    return {
        "requests": registry.counter(
            "repro_requests_total",
            "Requests completed, per deployment",
            labelnames=("deployment",)).labels(**labels),
        "latency": registry.histogram(
            "repro_request_latency_ms",
            "End-to-end request latency (enqueue to result), ms",
            labelnames=("deployment",),
            buckets=DEFAULT_LATENCY_BUCKETS_MS).labels(**labels),
        "queue_wait": registry.histogram(
            "repro_request_queue_wait_ms",
            "Coalescing delay before the batch dispatched, ms",
            labelnames=("deployment",),
            buckets=DEFAULT_LATENCY_BUCKETS_MS).labels(**labels),
        "rejected": registry.counter(
            "repro_requests_rejected_total",
            "Requests bounced off the bounded queue, per deployment",
            labelnames=("deployment",)).labels(**labels),
        "timed_out": registry.counter(
            "repro_requests_timed_out_total",
            "Requests expired before dispatch, per deployment",
            labelnames=("deployment",)).labels(**labels),
        "deduped": registry.counter(
            "repro_requests_deduped_total",
            "Duplicate submissions answered from the ledger, per deployment",
            labelnames=("deployment",)).labels(**labels),
    }


def _percentiles(samples) -> dict[str, float]:
    """p50/p95/p99 plus mean and max of a latency series, in ms."""
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0,
                "max": 0.0}
    array = np.asarray(samples, dtype=np.float64)
    p50, p95, p99 = np.percentile(array, (50.0, 95.0, 99.0))
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99),
            "mean": float(array.mean()), "max": float(array.max())}


@dataclass(frozen=True)
class MetricsSnapshot:
    """One frozen reading of a server's counters and distributions.

    ``latency_ms`` is end-to-end (enqueue → result), ``queue_wait_ms``
    the coalescing delay before the batch started executing, and
    ``service_ms`` the engine execution time of the request's batch.
    """

    completed: int
    rejected: int
    queue_depth: int
    elapsed_s: float
    throughput_rps: float
    batch_size_histogram: dict[int, int]
    mean_batch_size: float
    latency_ms: dict[str, float]
    queue_wait_ms: dict[str, float]
    service_ms: dict[str, float]
    timed_out: int = 0        # requests expired before dispatch
    worker_crashes: int = 0   # engine lanes evicted by the runtime fabric
    deduped: int = 0          # requests answered from the result ledger
    cached: int = 0           # requests answered from the result cache
    replica_divergences: int = 0  # replicated answers that disagreed
    #: Per-deployment snapshots (``{name: snapshot dict}``) on a
    #: multi-model server's aggregate snapshot; ``None`` on the
    #: per-deployment snapshots themselves and single-model servers.
    per_deployment: dict | None = None
    #: The runtime fabric's scheduling counters (``GroupMetrics.to_dict``
    #: — executed/stolen/requeued/retries/poisoned/...) plus the
    #: server's ``request_ledger`` and ``result_cache`` state on the
    #: aggregate snapshot of a running server; ``None`` elsewhere.
    fabric: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready payload (histogram keys become strings)."""
        payload = {
            "completed": self.completed,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "worker_crashes": self.worker_crashes,
            "deduped": self.deduped,
            "cached": self.cached,
            "replica_divergences": self.replica_divergences,
            "queue_depth": self.queue_depth,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "batch_size_histogram": {str(k): v for k, v in
                                     sorted(self.batch_size_histogram
                                            .items())},
            "mean_batch_size": self.mean_batch_size,
            "latency_ms": dict(self.latency_ms),
            "queue_wait_ms": dict(self.queue_wait_ms),
            "service_ms": dict(self.service_ms),
        }
        if self.per_deployment is not None:
            payload["per_deployment"] = dict(self.per_deployment)
        if self.fabric is not None:
            payload["fabric"] = dict(self.fabric)
        return payload


class ServerMetrics:
    """Accumulates per-request observations; cheap to feed, exact to read
    (percentiles over the most recent ``window`` requests).

    With a ``deployment`` name the collector *also* feeds the unified
    telemetry registry (``repro.telemetry``) under that label — the
    instruments are allocated once here, never per request, and every
    existing snapshot shape is untouched.  The aggregate collector on a
    multi-model server passes no name: its numbers are the sum of the
    labeled series, so feeding it too would double-count.
    """

    def __init__(self, window: int = 100_000,
                 deployment: str | None = None) -> None:
        self.window = window
        self.started_at = time.perf_counter()
        self.completed = 0
        self.rejected = 0
        self.timed_out = 0
        self.deduped = 0
        self.cached = 0
        self.replica_divergences = 0
        self._latency_ms: deque = deque(maxlen=window)
        self._queue_wait_ms: deque = deque(maxlen=window)
        self._service_ms: deque = deque(maxlen=window)
        self._batch_sizes: dict[int, int] = {}
        self._prom = (None if deployment is None
                      else _registry_instruments(deployment))

    def record(self, latency_ms: float, queue_wait_ms: float,
               service_ms: float, batch_size: int) -> None:
        """One completed request (called once per request, not per batch)."""
        self.completed += 1
        self._latency_ms.append(latency_ms)
        self._queue_wait_ms.append(queue_wait_ms)
        self._service_ms.append(service_ms)
        self._batch_sizes[batch_size] = \
            self._batch_sizes.get(batch_size, 0) + 1
        if self._prom is not None:
            self._prom["requests"].inc()
            self._prom["latency"].observe(latency_ms)
            self._prom["queue_wait"].observe(queue_wait_ms)

    def record_rejected(self) -> None:
        """A submit bounced off the bounded queue (backpressure)."""
        self.rejected += 1
        if self._prom is not None:
            self._prom["rejected"].inc()

    def record_timeout(self) -> None:
        """A request's deadline passed before its batch dispatched."""
        self.timed_out += 1
        if self._prom is not None:
            self._prom["timed_out"].inc()

    def record_deduped(self) -> None:
        """A duplicate submission answered from the result ledger."""
        self.deduped += 1
        if self._prom is not None:
            self._prom["deduped"].inc()

    def record_cached(self) -> None:
        """A submission answered from the content-addressed result
        cache (the cache feeds the registry's global
        ``repro_result_cache_*`` counters itself — no per-deployment
        instrument here, so nothing double-counts)."""
        self.cached += 1

    def record_divergence(self) -> None:
        """A replicated request's answers disagreed (runtime assert)."""
        self.replica_divergences += 1

    def reset(self) -> None:
        """Restart the measurement window (load-phase boundaries)."""
        self.started_at = time.perf_counter()
        self.completed = 0
        self.rejected = 0
        self.timed_out = 0
        self.deduped = 0
        self.cached = 0
        self.replica_divergences = 0
        self._latency_ms.clear()
        self._queue_wait_ms.clear()
        self._service_ms.clear()
        self._batch_sizes.clear()

    def snapshot(self, queue_depth: int = 0,
                 worker_crashes: int = 0,
                 per_deployment: dict | None = None,
                 fabric: dict | None = None) -> MetricsSnapshot:
        """Freeze the current counters into a :class:`MetricsSnapshot`."""
        elapsed = time.perf_counter() - self.started_at
        mean_batch = (
            sum(size * count for size, count in self._batch_sizes.items())
            / self.completed if self.completed else 0.0)
        return MetricsSnapshot(
            per_deployment=per_deployment,
            fabric=fabric,
            completed=self.completed,
            rejected=self.rejected,
            timed_out=self.timed_out,
            worker_crashes=worker_crashes,
            deduped=self.deduped,
            cached=self.cached,
            replica_divergences=self.replica_divergences,
            queue_depth=queue_depth,
            elapsed_s=elapsed,
            throughput_rps=self.completed / elapsed if elapsed else 0.0,
            batch_size_histogram=dict(self._batch_sizes),
            mean_batch_size=mean_batch,
            latency_ms=_percentiles(self._latency_ms),
            queue_wait_ms=_percentiles(self._queue_wait_ms),
            service_ms=_percentiles(self._service_ms),
        )
