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

Trace parity: cycle and memory-traffic counters are charged from the same
calibrated formulas the unit models charge per loop iteration, collapsed
into closed forms; the data-dependent adder-operation counters are
recovered from spike popcounts (a spike train's per-step bits of value
``v`` sum to ``popcount(v)``).  The equivalence suite pins every trace
field against the reference engine.

The arithmetic itself is factored into four overridable hooks —
:meth:`VectorizedEngine._conv_acc`, :meth:`~VectorizedEngine._pool_sums`,
:meth:`~VectorizedEngine._linear_acc` and
:meth:`~VectorizedEngine._popcount_sum` — so alternative compute
strategies (see :mod:`repro.core.engine.sparse`) can swap the tensor
kernels while inheriting every cycle/traffic charge unchanged.  The
charges are closed-form in the layer geometry (data-independent), so any
subclass that only overrides the hooks produces identical traces by
construction; the logits contract is that each hook returns the exact
integer the dense formula returns.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import CompiledModel, LayerProgram
from repro.core.engine.base import ExecutionEngine, register_engine
from repro.core.engine.trace import ExecutionTrace, LayerTrace
from repro.core.latency import (
    conv_pass_cycles,
    dram_stream_cycles,
    flatten_cycles,
    input_load_cycles,
)
from repro.core.stats import MemoryTraffic
from repro.encoding import radix
from repro.errors import SimulationError
from repro.nn import functional as F
from repro.snn.spec import requantize

__all__ = ["VectorizedEngine"]


def _popcount(values: np.ndarray, num_steps: int) -> np.ndarray:
    """Per-element spike count of a ``T``-step radix train (elementwise)."""
    v = values.astype(np.int64, copy=True)
    pop = np.zeros(values.shape, dtype=np.int64)
    for _ in range(num_steps):
        pop += v & 1
        v >>= 1
    return pop


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class _LayerResult:
    """One layer's batched output plus its (shared + per-image) charges."""

    def __init__(self, out: np.ndarray, cycles: int,
                 adder_ops: np.ndarray, traffic: MemoryTraffic) -> None:
        self.out = out
        self.cycles = cycles
        self.adder_ops = adder_ops  # (N,) — the only data-dependent counter
        self.traffic = traffic


@register_engine
class VectorizedEngine(ExecutionEngine):
    """Batched integer-tensor execution with reference-identical traces."""

    name = "vectorized"

    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, list[ExecutionTrace]]:
        images = self._check_batch(images)
        network = self.compiled.network
        t = network.num_steps
        n = images.shape[0]
        x = radix.quantize_real(images, t)  # (N, C, H, W) int64

        traces = [ExecutionTrace() for _ in range(n)]
        in_cycles = input_load_cycles(network.input_shape,
                                      self.calibration, t)
        for trace in traces:
            trace.input_cycles = in_cycles

        logits: np.ndarray | None = None
        for program in self.compiled.programs:
            dram_cycles = 0
            streamed_bits = 0
            if (program.kind in ("conv", "linear")
                    and not program.weights_on_chip):
                streamed_bits = (program.spec.num_weights
                                 * network.weight_bits)
                if streamed_bits:
                    dram_cycles = dram_stream_cycles(
                        streamed_bits, self.compiled.config)
            if program.kind == "conv":
                result = self._run_conv(program, x, t)
            elif program.kind == "pool":
                result = self._run_pool(program, x, t)
            elif program.kind == "flatten":
                result = self._run_flatten(program, x, t)
            else:  # linear
                result = self._run_linear(program, x, t)
                if program.spec.is_output:
                    logits = result.out
            x = result.out
            result.traffic.weight_stream_bits += streamed_bits
            for i, trace in enumerate(traces):
                traffic = MemoryTraffic()
                traffic.merge(result.traffic)
                trace.layers.append(LayerTrace(
                    name=program.name, kind=program.kind,
                    cycles=result.cycles, dram_cycles=dram_cycles,
                    adder_ops=int(result.adder_ops[i]), traffic=traffic))
        if logits is None:
            raise SimulationError(
                "compiled model has no output linear layer")
        return logits, traces

    # ------------------------------------------------------------------
    # Compute hooks: the arithmetic, separable from the trace charges.
    # Subclasses may override these (and only these) — each must return
    # the exact integers of the dense formula.  The two GEMM hooks take
    # the layer program for its cached GemmWeights, which are exact in
    # any term order, so dropped zero terms and reordering don't change
    # a single bit.
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
        """
        pops = _popcount(x, t)
        if weights is not None:
            shape = [1] * x.ndim
            shape[axis] = -1
            pops = pops * weights.reshape(shape)
        return pops.reshape(x.shape[0], -1).sum(axis=1)

    # ------------------------------------------------------------------
    # Layer executors: batched compute + closed-form trace charges
    # ------------------------------------------------------------------
    def _run_conv(self, program: LayerProgram, x: np.ndarray,
                  t: int) -> _LayerResult:
        spec = program.spec
        cal = self.calibration
        acc = self._conv_acc(program, x) + spec.bias.reshape(1, -1, 1, 1)
        out = requantize(acc, spec.scales, t, channel_axis=1)

        c_in, h_in, w_in = spec.in_shape
        c_out, h_out, w_out = spec.out_shape
        kr, kc = spec.kernel_size
        h_padded = h_in + 2 * spec.padding
        # Every unit pass sweeps all padded rows of every input channel at
        # every step; rounds run back to back, concurrent units tie.
        per_round = t * (c_in * conv_pass_cycles(spec, cal)
                         + cal.conv_pass_setup)
        rounds = program.conv_schedule.num_rounds
        cycles = rounds * per_round + cal.layer_setup

        groups = sum(len(r) for r in program.conv_schedule.rounds)
        traffic = MemoryTraffic(
            activation_read_bits=groups * t * c_in * h_padded * w_in,
            activation_write_bits=c_out * h_out * w_out * t,
            kernel_read_values=t * c_in * h_padded * kr * c_out,
        )

        # Adder activity: tap (w, j) reads padded column w*stride + j, so
        # an input spike in column x feeds cover(x) shift cycles, each
        # driving the kr adder rows of every output channel's slot.
        cover = np.zeros(w_in + 2 * spec.padding, dtype=np.int64)
        for j in range(kc):
            cover[np.arange(w_out) * spec.stride + j] += 1
        inner = cover[spec.padding:spec.padding + w_in]
        spikes = self._popcount_sum(x, t, inner, axis=3)
        adder_ops = kr * c_out * spikes
        return _LayerResult(out, cycles, adder_ops, traffic)

    def _run_pool(self, program: LayerProgram, x: np.ndarray,
                  t: int) -> _LayerResult:
        spec = program.spec
        cal = self.calibration
        out = self._pool_sums(spec, x) >> spec.shift

        c, h_in, w_in = spec.in_shape
        _, h_out, w_out = spec.out_shape
        cycles = (t * c * (h_in * (spec.size + cal.pool_row_overhead)
                           + cal.pool_pass_setup)
                  + cal.layer_setup)
        traffic = MemoryTraffic(
            activation_read_bits=t * c * h_in * w_in,
            activation_write_bits=c * h_out * w_out * t,
        )
        # The pool unit sums whole rows: a spike in input row r is added
        # once per output row whose window covers r.
        cover = np.zeros(h_in, dtype=np.int64)
        for oy in range(h_out):
            cover[oy * spec.stride:oy * spec.stride + spec.size] += 1
        adder_ops = self._popcount_sum(x, t, cover, axis=2)
        return _LayerResult(out, cycles, adder_ops, traffic)

    def _run_flatten(self, program: LayerProgram, x: np.ndarray,
                     t: int) -> _LayerResult:
        spec = program.spec
        out = x.reshape(x.shape[0], -1)
        bits = t * spec.out_features
        traffic = MemoryTraffic(activation_read_bits=bits,
                                activation_write_bits=bits)
        cycles = flatten_cycles(spec, self.compiled.config, t)
        adder_ops = np.zeros(x.shape[0], dtype=np.int64)
        return _LayerResult(out, cycles, adder_ops, traffic)

    def _run_linear(self, program: LayerProgram, x: np.ndarray,
                    t: int) -> _LayerResult:
        spec = program.spec
        cal = self.calibration
        acc = self._linear_acc(program, x) + spec.bias.reshape(1, -1)
        if spec.is_output:
            out = acc
        else:
            out = requantize(acc, spec.scales, t, channel_axis=1)

        p = self.compiled.config.linear_unit.parallel_outputs
        blocks = _ceil_div(spec.out_features, p)
        cycles = (t * (blocks * (spec.in_features + cal.linear_block_flush)
                       + cal.linear_pass_setup)
                  + cal.layer_setup)
        traffic = MemoryTraffic(
            activation_read_bits=t * spec.in_features,
            activation_write_bits=spec.out_features * t,
            kernel_read_values=t * spec.in_features * spec.out_features,
        )
        # Each input spike gates one add in every parallel output's adder.
        adder_ops = self._popcount_sum(x, t) * spec.out_features
        return _LayerResult(out, cycles, adder_ops, traffic)
