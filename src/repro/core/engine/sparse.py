"""The sparse backend: skip silent spike planes, keep every bit and charge.

Radix-coded SNN activations are mostly zero: a quantized input pixel
that never spikes across the ``T`` steps is a zero in the collapsed
integer tensor, and whole receptive-field patches — often whole images
mid-sweep — carry no spikes at all.  The dense GEMMs in the vectorized
engine multiply all of those zeros anyway.  This backend subclasses
:class:`~repro.core.engine.vectorized.VectorizedEngine` and overrides
only its four compute hooks to gather the *active* work:

* images whose activation tensor is entirely zero skip the layer's
  arithmetic outright (their outputs are exact zeros);
* convolutions run an im2col-GEMM over only the patch rows with at
  least one spike, and only the kernel columns some patch touches;
* linear layers drop all-zero input columns before the matmul;
* adder-operation popcounts are computed over the nonzero entries only
  (``np.nonzero`` + ``np.bincount``) instead of a full-tensor pass.

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

When a layer's activations are actually dense the gather bookkeeping
is pure overhead, so each hook falls back to the parent's dense kernel
above a density threshold.  The thresholds are *calibrated*: when a
:class:`~repro.core.engine.calibrate.CalibrationTable` is installed for
this deployment, each layer gets its own measured crossover (and the
popcount gather its own); otherwise the default constants apply
(:data:`DENSE_FALLBACK_DENSITY`; the popcount gather only for an
all-zero tensor).  Thresholds only choose *which* exact kernel runs, so
calibration can never change an output bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY
from repro.core.engine.base import register_engine
from repro.core.engine.calibrate import EngineThresholds, thresholds_for
from repro.core.engine.vectorized import VectorizedEngine, _popcount
from repro.nn import functional as F

__all__ = ["SparseEngine", "DENSE_FALLBACK_DENSITY"]

#: The uncalibrated default: above this fraction of active rows/columns,
#: gather/scatter loses to the dense GEMM and the hooks defer to the
#: parent implementation.  A calibration table overrides it per layer.
DENSE_FALLBACK_DENSITY = 0.85


@register_engine
class SparseEngine(VectorizedEngine):
    """Sparsity-aware execution: identical bits, only the live work."""

    name = "sparse"

    def __init__(self, compiled, calibration=DEFAULT_LATENCY) -> None:
        super().__init__(compiled, calibration)
        self.apply_thresholds(thresholds_for(compiled, calibration))

    def apply_thresholds(self, thresholds: EngineThresholds) -> None:
        """Adopt (re-)calibrated crossovers; outputs are unaffected."""
        self.thresholds = thresholds
        self._popcount_gather = thresholds.popcount_gather
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

    def _popcount_sum(self, x: np.ndarray, t: int,
                      weights: np.ndarray | None = None,
                      axis: int | None = None) -> np.ndarray:
        n = x.shape[0]
        flat = x.reshape(n, -1)
        # The gather (nonzero + fancy indexing) costs more than the
        # dense bit-count pass it saves, so it wins only while most
        # entries are zero.  The crossover is calibrated.
        if np.count_nonzero(flat) > flat.size * self._popcount_gather:
            return super()._popcount_sum(x, t, weights, axis)
        idx_n, idx_f = np.nonzero(flat)
        if idx_n.size == 0:
            return np.zeros(n, dtype=np.int64)
        pops = _popcount(flat[idx_n, idx_f])
        if weights is not None:
            inner = 1
            for extent in x.shape[axis + 1:]:
                inner *= extent
            coord = (idx_f // inner) % x.shape[axis]
            pops = pops * weights[coord]
        # bincount's float64 accumulation is exact here: the weighted
        # popcounts are integers and their sums stay far below 2**53.
        return np.bincount(idx_n, weights=pops,
                           minlength=n).astype(np.int64)
