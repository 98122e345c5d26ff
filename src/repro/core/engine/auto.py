"""Batch density routing for the ``sparse`` backend.

The sparse engine's hooks win on event-style frames and lose on dense
ones; the crossover is a property of the *deployment*, measured by
:func:`~repro.core.engine.calibrate.calibrate_deployment` and stored as
the table's ``backend_crossover``.  :func:`routes_dense` is the one
batch-level check: a :class:`~repro.core.engine.sparse.SparseEngine`
measures each incoming batch's realized nonzero fraction and, above its
routing density (uncalibrated:
:data:`~repro.core.engine.calibrate.DEFAULT_ROUTE_DENSITY`), runs the
batch on a ``vectorized`` engine bound to the same compiled model.  At
or below it the sparse hooks run, each with its own per-layer dense
fallback.

Bit-identity is inherited, not re-argued: both paths are pinned bit-
and trace-identical to the reference engine by the equivalence suite,
so *any* per-batch choice between them yields the same logits and
traces.  Routing decisions are observable via the telemetry counter
``engine_auto_routed_total{backend=...}``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["routes_dense"]

# Per-backend counter children, created lazily so importing the engine
# never drags the telemetry registry in (same idiom as codec's byte
# counters).
_ROUTE_COUNTERS: dict[str, object] = {}


def _count_route(backend: str) -> None:
    child = _ROUTE_COUNTERS.get(backend)
    if child is None:
        try:
            from repro.telemetry import get_registry
        except Exception:
            return
        child = get_registry().counter(
            "engine_auto_routed_total",
            "Batches the sparse engine routed, by the kernels that ran.",
            labelnames=("backend",),
        ).labels(backend=backend)
        _ROUTE_COUNTERS[backend] = child
    child.inc()


def routes_dense(images: np.ndarray, route_density: float) -> bool:
    """Whether a checked, non-empty batch runs on the dense kernels.

    True when its nonzero fraction is above ``route_density``; the
    decision is counted either way.
    """
    dense = np.count_nonzero(images) / images.size > route_density
    _count_route("vectorized" if dense else "sparse")
    return dense
