"""Small statistics helpers shared by the workloads and the report."""

from __future__ import annotations

import numpy as np


def percentile(samples, q: float) -> tuple[float, int]:
    """The ``q``-th percentile of ``samples`` and the sample count.

    Every timing the benchmark reports carries the number of samples it
    rests on, so a tail percentile over too few samples is visible.
    An empty sample gives ``(nan, 0)``.
    """
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size == 0:
        return float("nan"), 0
    return float(np.percentile(values, q)), int(values.size)


def summary(samples) -> dict:
    """p50, p95 and p99 with the sample count (p99 is a diagnostic)."""
    samples = list(samples)
    p50, count = percentile(samples, 50.0)
    return {"p50": p50, "p95": percentile(samples, 95.0)[0],
            "p99": percentile(samples, 99.0)[0], "n": count}


def median(samples) -> float:
    return percentile(samples, 50.0)[0]


def mean(samples) -> float:
    values = list(samples)
    return float(sum(values) / len(values)) if values else 0.0
