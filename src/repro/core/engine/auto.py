"""The ``auto`` backend: route each batch by its observed density.

The sparse engine wins on event-style frames and loses on dense ones;
the crossover is a property of the *deployment*, measured by
:func:`~repro.core.engine.calibrate.calibrate_deployment` and stored as
the table's ``backend_crossover``.  This backend borrows the warm
cache's sparse and vectorized engines for the same compiled model and,
per incoming batch, measures the realized nonzero fraction and delegates to
whichever side of the calibrated crossover it lands on (uncalibrated
deployments route at :data:`~repro.core.engine.calibrate.DEFAULT_ROUTE_DENSITY`).

Bit-identity is inherited, not re-argued: both delegates are pinned
bit- and trace-identical to the reference engine by the equivalence
suite, so *any* per-batch choice between them yields the same logits
and traces as either alone.  Routing decisions are observable via the
telemetry counter ``engine_auto_routed_total{backend=...}``.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY
from repro.core.engine.base import ExecutionEngine, register_engine
from repro.core.engine.cache import warm_engine
from repro.core.engine.calibrate import EngineThresholds, thresholds_for

__all__ = ["AutoEngine"]

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
            "Batches routed by the auto engine, by chosen backend.",
            labelnames=("backend",),
        ).labels(backend=backend)
        _ROUTE_COUNTERS[backend] = child
    child.inc()


@register_engine
class AutoEngine(ExecutionEngine):
    """Density-routed execution: sparse when quiet, vectorized when loud."""

    name = "auto"

    def __init__(self, compiled, calibration=DEFAULT_LATENCY) -> None:
        super().__init__(compiled, calibration)
        # Children come from the warm cache: the same instances every
        # other caller of this deployment runs, so routing adds only a
        # density check — no duplicate engine state, and a calibration
        # table installed later reaches them through the cache refresh.
        self._sparse = warm_engine(compiled.network, compiled.config,
                                   "sparse", calibration)
        self._dense = warm_engine(compiled.network, compiled.config,
                                  "vectorized", calibration)
        self.route_density = thresholds_for(
            compiled, calibration).route_density
        #: Backend chosen for the most recent batch (introspection).
        self.last_backend: str | None = None

    def apply_thresholds(self, thresholds: EngineThresholds) -> None:
        """Adopt new thresholds (the ``install_table`` refresh hook)."""
        self.route_density = thresholds.route_density
        self._sparse.apply_thresholds(thresholds)

    def select_backend(self, images: np.ndarray) -> str:
        """Pure routing decision for a batch (no side effects)."""
        images = np.asarray(images)
        if not images.size:
            return "vectorized"
        density = np.count_nonzero(images) / images.size
        return "sparse" if density <= self.route_density else "vectorized"

    def _route(self, images: np.ndarray):
        """Validate a batch and pick (and count) its delegate engine."""
        images = self._check_batch(images)
        backend = self.select_backend(images)
        self.last_backend = backend
        _count_route(backend)
        return (self._sparse if backend == "sparse" else self._dense), images

    def run_batch(self, images: np.ndarray):
        engine, images = self._route(images)
        return engine.run_batch(images)

    def _run_batch_trace(self, images: np.ndarray):
        engine, images = self._route(images)
        return engine._run_batch_trace(images)
