"""The sparse backend: skip silent spike planes, keep every bit and charge.

Radix-coded SNN activations are mostly zero: a quantized input pixel
that never spikes across the ``T`` steps is a zero in the collapsed
integer tensor, and whole receptive-field patches — often whole images
mid-sweep — carry no spikes at all.  The dense GEMMs in the vectorized
engine multiply all of those zeros anyway.  This backend subclasses
:class:`~repro.core.engine.vectorized.VectorizedEngine` and overrides
three of its compute hooks to gather the *active* work:

* images whose activation tensor is entirely zero skip the layer's
  arithmetic outright (their outputs are exact zeros);
* convolutions run an im2col-GEMM over only the patch rows with at
  least one spike, and only the kernel columns some patch touches;
* linear layers drop all-zero input columns before the matmul.

Why this is bit-exact rather than merely close: every GEMM goes through
the layer's cached :class:`~repro.core.gemm.GemmWeights`, the same
operand the dense path uses.  Its float32 chunks keep every partial sum
an integer of magnitude at most ``2**24`` (float64 below ``2**53`` when
a layer's products are too large for that), so the arithmetic is
*exact* — a gathered subset of rows or taps only has fewer terms, and
dropping terms that are identically zero, or reordering the remaining
ones, cannot change a single bit.
The trace side needs no argument at all: all cycle and memory-traffic
charges in the parent are closed-form in the layer geometry (the
accelerator's units sweep every plane whether or not it spikes), and
the data-dependent adder counters count exactly the same spikes — so
traces are identical by construction.  The equivalence suite pins both
claims against the reference engine.

Dense data makes the gather bookkeeping pure overhead, so two density
checks hand it back to the dense kernels.  Per batch, a batch whose
nonzero fraction is above the deployment's routing crossover runs on a
``vectorized`` engine over the same compiled model
(:mod:`repro.core.engine.auto`).  Per hook, a layer whose active
rows/columns are above its own crossover runs the parent's dense
kernel.  Both are *calibrated*: when a
:class:`~repro.core.engine.calibrate.CalibrationTable` is installed for
this deployment its measured crossovers apply; otherwise the defaults
:data:`~repro.core.engine.calibrate.DEFAULT_ROUTE_DENSITY` and
:data:`~repro.core.engine.calibrate.DEFAULT_DENSE_FALLBACK` do.
Thresholds only choose *which* exact kernel runs, so calibration can
never change an output bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY
from repro.core.engine.auto import routes_dense
from repro.core.engine.base import register_engine
from repro.core.engine.calibrate import EngineThresholds, thresholds_for
from repro.core.engine.trace import BatchTrace
from repro.core.engine.vectorized import VectorizedEngine
from repro.nn import functional as F

__all__ = ["SparseEngine"]


@register_engine
class SparseEngine(VectorizedEngine):
    """Sparsity-aware execution: identical bits, only the live work."""

    name = "sparse"

    def __init__(self, compiled, calibration=DEFAULT_LATENCY) -> None:
        super().__init__(compiled, calibration)
        # Where dense batches run.  It shares this engine's compiled
        # model, so its GEMM weights are the ones the hooks use.
        self._dense = VectorizedEngine(compiled, calibration)
        self.apply_thresholds(thresholds_for(compiled, calibration))

    def apply_thresholds(self, thresholds: EngineThresholds) -> None:
        """Adopt (re-)calibrated crossovers; outputs are unaffected."""
        self.thresholds = thresholds
        self._fallback_default = thresholds.dense_fallback
        self._fallback_by_spec = {
            id(program.spec): thresholds.for_layer(program.name,
                                                   program.kind)
            for program in self.compiled.programs
            if program.kind in ("conv", "linear")
        }

    def _fallback_for(self, spec) -> float:
        return self._fallback_by_spec.get(id(spec),
                                          self._fallback_default)

    def _run_batch_trace(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, BatchTrace]:
        images = self._check_batch(images)
        if routes_dense(images, self.thresholds.route_density):
            return self._dense._run_batch_trace(images)
        return super()._run_batch_trace(images)

    # -- compute hooks -------------------------------------------------
    def _conv_acc(self, program, x: np.ndarray) -> np.ndarray:
        spec = program.spec
        gemm = program.gemm
        n = x.shape[0]
        c_out, h_out, w_out = spec.out_shape
        threshold = self._fallback_for(spec)
        live = x.reshape(n, -1).any(axis=1)
        acc = np.zeros((n, c_out, h_out, w_out), dtype=np.int64)
        if not live.any():
            return acc
        if live.all():
            if np.count_nonzero(x) > x.size * threshold:
                return super()._conv_acc(program, x)
            xs = x  # all live: skip the gather copy
        else:
            xs = x[live]
        cols = F.im2col(xs.astype(gemm.dtype), spec.kernel_size,
                        spec.stride, spec.padding)
        m, p, k = cols.shape
        flat = cols.reshape(m * p, k)
        active = flat.any(axis=1)
        if active.mean() > threshold:
            prod = gemm.matmul(flat)
        else:
            prod = np.zeros((m * p, c_out), dtype=np.int64)
            rows = np.nonzero(active)[0]
            if rows.size:
                sub = flat[rows]
                taps = sub.any(axis=0)
                prod[rows] = gemm.matmul(sub[:, taps], taps)
        acc[live] = (prod.reshape(m, p, c_out).transpose(0, 2, 1)
                     .reshape(m, c_out, h_out, w_out))
        return acc

    def _pool_sums(self, spec, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        live = x.reshape(n, -1).any(axis=1)
        if live.all():
            return super()._pool_sums(spec, x)
        sums = np.zeros((n,) + tuple(spec.out_shape), dtype=np.int64)
        if live.any():
            sums[live] = super()._pool_sums(spec, x[live])
        return sums

    def _linear_acc(self, program, x: np.ndarray) -> np.ndarray:
        spec = program.spec
        n = x.shape[0]
        live = x.any(axis=1)
        if not live.any():
            return np.zeros((n, spec.out_features), dtype=np.int64)
        xs = x if live.all() else x[live]
        taps = xs.any(axis=0)
        if taps.mean() > self._fallback_for(spec):
            out = super()._linear_acc(program, xs)
        else:
            out = program.gemm.matmul(xs[:, taps], taps)
        if live.all():
            return out
        acc = np.zeros((n, spec.out_features), dtype=np.int64)
        acc[live] = out
        return acc
