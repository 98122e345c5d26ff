"""Execution controller (Fig. 1): binds a compiled model to a backend.

Historically this module held the whole per-image execution loop; that
loop now lives in :mod:`repro.core.engine.reference` as one of several
interchangeable :class:`~repro.core.engine.ExecutionEngine` backends.
The controller remains the orchestration-layer entry point: it resolves a
backend name to an engine bound to the compiled model and exposes the
per-image and batched run calls.  ``ExecutionTrace``/``LayerTrace`` are
re-exported here for backwards compatibility.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.compiler import CompiledModel
from repro.core.engine import ExecutionEngine, create_engine
from repro.core.engine.trace import ExecutionTrace, LayerTrace, TraceMerge

__all__ = ["Controller", "ExecutionTrace", "LayerTrace", "TraceMerge"]


class Controller:
    """Runs a compiled model on a selected execution backend."""

    def __init__(
        self,
        compiled: CompiledModel,
        calibration: LatencyCalibration = DEFAULT_LATENCY,
        backend: str | type[ExecutionEngine] = "reference",
    ) -> None:
        self.compiled = compiled
        self.calibration = calibration
        self.engine = create_engine(backend, compiled, calibration)

    @property
    def backend(self) -> str:
        """Name of the active execution backend."""
        return self.engine.name

    def run_image(self, image: np.ndarray) -> tuple[np.ndarray,
                                                    ExecutionTrace]:
        """Infer one ``(C, H, W)`` image; returns (logits, trace)."""
        return self.engine.run_image(image)

    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, list[ExecutionTrace]]:
        """Infer a ``(N, C, H, W)`` batch; returns (logits, traces)."""
        return self.engine.run_batch(images)

    def run_images(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, TraceMerge]:
        """Infer a batch and aggregate the per-image traces.

        The multi-image counterpart of :meth:`run_image`: returns the
        batch logits plus one :class:`TraceMerge` summing every image's
        cycle, DRAM, adder-operation and memory-traffic counters — the
        form the energy ablations and the sweep driver consume, so
        claims average over many images instead of quoting one.
        """
        logits, batch = self.engine.run_merged(images)
        return logits, batch.merged()
