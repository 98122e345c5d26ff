"""The vectorized backend: whole-batch tensor execution, identical traces.

The reference engine simulates every register shift, which makes anything
beyond a handful of images intractable in Python.  This backend exploits
that the accelerator's arithmetic is *linear per layer*: summing binary
spike planes with a left-shifting accumulator over ``T`` steps is exactly
one integer convolution / pooling / matmul over the radix-decoded
activations.  It therefore runs each layer as a single im2col-GEMM (or
window-sum / matmul) over the whole batch and requantizes with the shared
:func:`~repro.snn.spec.requantize` contract — bit-identical logits by
construction.

Why the floating-point GEMMs are exact: activations are integers in
``[0, 2**T - 1]`` and weights small signed integers, so every partial
sum of a ``K``-term dot product is an integer bounded by
``K * (2**T - 1) * max|w|``, in whatever order BLAS adds.  Each layer's
:class:`~repro.core.gemm.GemmWeights` (cached on the compiled program,
built once per process) splits ``K`` into chunks that keep that bound
within ``2**24``, where float32 is exact, and adds the chunk results in
int64 — one chunk per layer for the evaluated models.  A layer where a
single product can exceed ``2**24`` (large ``T``) falls back to one
float64 GEMM, exact below ``2**53`` as ``SNNModel.forward_ints`` is.

Trace parity: cycle and memory-traffic counters come from
:func:`~repro.core.latency.layer_charges`, the one closed form that also
prices every layer for :class:`~repro.core.latency.LatencyModel`.  The
reference engine's unit models charge their own loops instead, and the
equivalence suite pins every trace field against them.  The
data-dependent adder-operation counters are recovered from spike
popcounts (a spike train's per-step bits of value ``v`` sum to
``popcount(v)``).

The engine's native output is a :class:`~repro.core.engine.trace.BatchTrace`
(:meth:`VectorizedEngine._run_batch_trace`, behind ``run_merged``): the
closed-form charges form one ``(L, 6)`` table computed once per engine
and shared by every batch, and the adder counters fill one ``(N, L)``
matrix — no per-image or per-layer objects.  ``run_batch`` expands it
into per-image :class:`~repro.core.engine.trace.ExecutionTrace` records.

Silent images: the accelerator sweeps every spike plane whether or not
it spikes, so skipping work is purely a host-side speed trick, and the
one that pays is skipping whole images.  Each layer already reduces its
input to a per-image weighted spike count for the adder counters; an
image whose count is zero contributes nothing to that layer's
accumulator, so the layer's kernel runs on the live images only and a
silent image keeps its exact bias-only output (the ``sparse`` backend
name is an alias of this engine).  An all-live batch takes the plain
dense call.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

import numpy as np

from repro.core.compiler import LayerProgram
from repro.core.engine.base import ExecutionEngine, register_engine
from repro.core.engine.trace import BatchTrace, ExecutionTrace
from repro.core.latency import (
    CHARGE_COLUMNS,
    input_load_cycles,
    layer_charges,
)
from repro.encoding import radix
from repro.errors import SimulationError
from repro.nn import functional as F
from repro.snn.spec import requantize

__all__ = ["VectorizedEngine"]


def _popcount(values: np.ndarray) -> np.ndarray:
    """Per-element spike count of a radix train (elementwise, int64).

    A value's ``T``-step train spikes once per set bit, and activations
    are clipped to ``[0, 2**T - 1]``, so counting every set bit is exact.
    """
    return np.bitwise_count(values).astype(np.int64)


@register_engine
class VectorizedEngine(ExecutionEngine):
    """Batched integer-tensor execution with reference-identical traces."""

    name = "vectorized"
    aliases = ("sparse",)

    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, list[ExecutionTrace]]:
        logits, batch = self._run_batch_trace(images)
        return logits, batch.traces()

    def _run_batch_trace(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, BatchTrace]:
        images = self._check_batch(images)
        t = self.compiled.network.num_steps
        x = radix.quantize_real(images, t)  # (N, C, H, W) int64
        programs = self.compiled.programs
        adder_ops = np.zeros((x.shape[0], len(programs)), dtype=np.int64)
        logits: np.ndarray | None = None
        for column, program in enumerate(programs):
            if program.kind == "conv":
                x, adder_ops[:, column] = self._run_conv(program, x, t)
            elif program.kind == "pool":
                x, adder_ops[:, column] = self._run_pool(program, x, t)
            elif program.kind == "flatten":
                x = x.reshape(x.shape[0], -1)  # no adds: a buffer move
            else:  # linear
                x, adder_ops[:, column] = self._run_linear(program, x, t)
                if program.spec.is_output:
                    logits = x
        if logits is None:
            raise SimulationError(
                "compiled model has no output linear layer")
        return logits, replace(self._batch_template, adder_ops=adder_ops)

    @cached_property
    def _batch_template(self) -> BatchTrace:
        """A zero-image batch trace carrying this deployment's layers,
        input cycles and read-only ``(L, 6)`` charge table — the part of
        every batch's trace that the data cannot change."""
        network = self.compiled.network
        programs = self.compiled.programs
        charges = np.array([
            layer_charges(p.spec, self.compiled.config, self.calibration,
                          network.num_steps, network.weight_bits,
                          p.weights_on_chip)
            for p in programs], dtype=np.int64).reshape(
                len(programs), len(CHARGE_COLUMNS))
        charges.flags.writeable = False
        return BatchTrace(
            layers=tuple((p.name, p.kind) for p in programs),
            charges=charges,
            input_cycles=input_load_cycles(network.input_shape,
                                           self.calibration,
                                           network.num_steps),
            adder_ops=np.zeros((0, len(programs)), dtype=np.int64))

    # ------------------------------------------------------------------
    # Kernels: the arithmetic, separable from the trace charges.  The two
    # GEMM kernels take the layer program for its cached GemmWeights.
    # ------------------------------------------------------------------
    def _conv_acc(self, program: LayerProgram,
                  x: np.ndarray) -> np.ndarray:
        """Pre-bias convolution accumulator, ``(N, C_out, H_out, W_out)``."""
        spec = program.spec
        n = x.shape[0]
        c_out, h_out, w_out = spec.out_shape
        cols = F.im2col(x.astype(program.gemm.dtype), spec.kernel_size,
                        spec.stride, spec.padding)
        acc = program.gemm.matmul(cols.reshape(-1, cols.shape[-1]))
        return (acc.reshape(n, h_out * w_out, c_out).transpose(0, 2, 1)
                .reshape(n, c_out, h_out, w_out))

    def _pool_sums(self, spec, x: np.ndarray) -> np.ndarray:
        """Integer window sums (pre-shift), ``(N,) + spec.out_shape``."""
        return np.rint(
            F.avg_pool2d(x.astype(np.float64), spec.size, spec.stride)
            * spec.size * spec.size).astype(np.int64)

    def _linear_acc(self, program: LayerProgram,
                    x: np.ndarray) -> np.ndarray:
        """Pre-bias matmul accumulator, ``(N, out_features)``."""
        return program.gemm.matmul(x)

    def _popcount_sum(self, x: np.ndarray, t: int,
                      weights: np.ndarray | None = None,
                      axis: int | None = None) -> np.ndarray:
        """Per-image weighted spike count, ``(N,)`` int64.

        ``weights`` (if given) is a 1-D integer cover applied along
        ``axis`` of ``x``; with no weights every spike counts once.
        ``t`` is the train length ``x`` was clipped to.
        """
        pops = np.bitwise_count(x)  # uint8 per element, exact as _popcount
        if weights is None:
            return pops.reshape(x.shape[0], -1).sum(axis=1, dtype=np.int64)
        # Reduce every other axis first; the cover then weights one
        # spike count per position along ``axis``.
        others = tuple(a for a in range(1, x.ndim) if a != axis)
        return pops.sum(axis=others, dtype=np.int64) @ weights

    # ------------------------------------------------------------------
    # Layer executors: per-image adder activity first, then the batched
    # kernel on the images it shows are live
    # ------------------------------------------------------------------
    def _run_conv(self, program: LayerProgram, x: np.ndarray,
                  t: int) -> tuple[np.ndarray, np.ndarray]:
        spec = program.spec
        # Adder activity: tap (w, j) reads padded column w*stride + j, so
        # an input spike in column x feeds cover(x) shift cycles, each
        # driving the kr adder rows of every output channel's slot.  A
        # spike in a column no tap reads (cover 0) feeds no output.
        w_in = spec.in_shape[2]
        c_out, _, w_out = spec.out_shape
        kr, kc = spec.kernel_size
        cover = np.zeros(w_in + 2 * spec.padding, dtype=np.int64)
        for j in range(kc):
            cover[np.arange(w_out) * spec.stride + j] += 1
        inner = cover[spec.padding:spec.padding + w_in]
        spikes = self._popcount_sum(x, t, inner, axis=3)

        acc = (_on_live(self._conv_acc, program, x, spikes > 0,
                        spec.out_shape)
               + spec.bias.reshape(1, -1, 1, 1))
        out = requantize(acc, spec.scales, t, channel_axis=1)
        return out, kr * c_out * spikes

    def _run_pool(self, program: LayerProgram, x: np.ndarray,
                  t: int) -> tuple[np.ndarray, np.ndarray]:
        spec = program.spec
        # The pool unit sums whole rows: a spike in input row r is added
        # once per output row whose window covers r (and feeds no output
        # when none does).
        h_in = spec.in_shape[1]
        h_out = spec.out_shape[1]
        cover = np.zeros(h_in, dtype=np.int64)
        for oy in range(h_out):
            cover[oy * spec.stride:oy * spec.stride + spec.size] += 1
        spikes = self._popcount_sum(x, t, cover, axis=2)
        sums = _on_live(self._pool_sums, spec, x, spikes > 0,
                        spec.out_shape)
        return sums >> spec.shift, spikes

    def _run_linear(self, program: LayerProgram, x: np.ndarray,
                    t: int) -> tuple[np.ndarray, np.ndarray]:
        spec = program.spec
        spikes = self._popcount_sum(x, t)
        acc = (_on_live(self._linear_acc, program, x, spikes > 0,
                        (spec.out_features,))
               + spec.bias.reshape(1, -1))
        if spec.is_output:
            out = acc
        else:
            out = requantize(acc, spec.scales, t, channel_axis=1)
        # Each input spike gates one add in every parallel output's adder.
        return out, spikes * spec.out_features


def _on_live(kernel, layer, x: np.ndarray, live: np.ndarray,
             out_shape) -> np.ndarray:
    """``kernel(layer, x)`` computed for the images ``live`` marks only.

    The other images' rows are zeros, exactly what the kernel returns
    for an input with no spike it reads; an all-live batch is one plain
    call.
    """
    if live.all():
        return kernel(layer, x)
    out = np.zeros((x.shape[0],) + tuple(out_shape), dtype=np.int64)
    if live.any():
        out[live] = kernel(layer, x[live])
    return out
