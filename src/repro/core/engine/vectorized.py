"""The vectorized backend: whole-batch tensor execution, identical traces.

The reference engine simulates every register shift, which makes anything
beyond a handful of images intractable in Python.  This backend exploits
that the accelerator's arithmetic is *linear per layer*: summing binary
spike planes with a left-shifting accumulator over ``T`` steps is exactly
one integer convolution / pooling / matmul over the radix-decoded
activations.  It therefore runs each layer as a single GEMM over
unfolded patches (or window-sum / matmul) over the whole batch and
requantizes with the shared :func:`~repro.snn.spec.requantize` contract
— bit-identical logits by construction.

Channel-last activations: like the paper's conv unit, which reads every
input channel of a kernel row in one pass, the engine holds activations
as C-contiguous ``(N, H, W, C)`` tensors from the quantized input (made
contiguous once) to the last pool; ``flatten`` reads them out in
``(C, H, W)`` order, so the linear weights keep their layout.  A conv
widens and zero-pads its input in one pass into a fresh C-contiguous
float buffer and copies it into the ``(M, kr * kc * C_in)`` patch
matrix in one of two orders.  Row-major: a kernel row's ``kc`` taps
over all ``C_in`` channels are one contiguous run of ``kc * C_in``
values, so one strided view and one copy give the matrix.  K-major: one
slice copy per tap into a ``(kr, kc, C_in, N, H_out, W_out)`` buffer,
whose transpose is the same matrix in F order.  Short runs make a copy
slow, so a conv takes K-major exactly when its output row is longer
than ``kc * C_in`` (a first conv over one or three channels), and
row-major otherwise.  Either way the columns are tap-major, matching
the compiled weight matrix (``weights.transpose(0, 2, 3, 1)``,
``(C_out, kr * kc * C_in)``), and the GEMM rows are already the
channel-last output — no transpose back.

Why the floating-point GEMMs are exact: activations are integers in
``[0, 2**T - 1]`` and weights small signed integers, so every partial
sum of a ``K``-term dot product is an integer bounded by
``K * (2**T - 1) * max|w|``, in whatever order BLAS adds.  Each layer's
:class:`~repro.core.gemm.GemmWeights` (cached on the compiled program,
built once per process) splits ``K`` into chunks that keep that bound
within ``2**24``, where float32 is exact, and adds the chunk results in
float64 — one chunk per layer for the evaluated models.  A layer where a
single product can exceed ``2**24`` (large ``T``) falls back to one
float64 GEMM, exact below ``2**53`` as ``SNNModel.forward_ints`` is.

Narrow activations: the paper's datapath holds each activation as a
``T``-bit radix value, and so does this engine.  Every activation lies
in ``[0, 2**T - 1]`` — the input quantizer and the requantizer both
saturate there, and a pool's shifted window sum cannot exceed it — so
the narrowest unsigned type holding ``2**T - 1`` (``uint8`` for
``T <= 8``, as in every evaluated model) is exact from the quantized
input to the last hidden layer; only the logits and the adder counters
are int64.  Conv and hidden linear layers requantize the GEMM's exact
``(M, C_out)`` products straight into that type, adding the bias in
float64 inside :func:`~repro.snn.spec.requantize`: accumulator, bias
and their sum are integers below ``2**53``, where float64 is exact, so
the result equals requantizing the int64 ``acc + bias``.  Pool window
sums are widened before they are added: the slices accumulate in the
narrowest type holding ``size**2 * (2**T - 1)`` (``uint16`` for a 2x2
window at T=8, where four saturated inputs already overflow ``uint8``)
and narrow again after the shift.  The spike popcounts behind the adder
counters are one float32 matrix-vector product over the narrow tensor
(float64 when an image's weighted total could pass ``2**24``).

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
image whose count is zero reads no spike there, so all it does from
there on is data-independent: the layer outputs its silent row
(``requantize(bias)``), and the rest of the network runs on that.  The
image leaves the batch at its first silent layer and takes that layer's
*tail* — the logits and later adder counters of that run, computed once
per engine.  Later layers count spikes and run their kernels on the
surviving rows only, and a batch with no live row left returns at once
(the ``sparse`` backend name is an alias of this engine).
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.compiler import LayerProgram
from repro.core.engine.base import ExecutionEngine, register_engine
from repro.core.engine.trace import BatchTrace, ExecutionTrace
from repro.core.gemm import FLOAT32_EXACT
from repro.core.latency import (
    CHARGE_COLUMNS,
    input_load_cycles,
    layer_charges,
)
from repro.encoding import radix
from repro.errors import SimulationError
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
        x = radix.quantize_real(images, self.compiled.network.num_steps,
                                self._activation_dtype)
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1))  # channel-last
        logits, adder_ops = self._run_layers(x, 0, self._tails)
        return logits, replace(self._batch_template, adder_ops=adder_ops)

    def _run_layers(self, x: np.ndarray, start: int, tails: list | tuple
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Layers ``start`` onward on ``x``: ``(N, classes)`` logits and
        the ``(N, L)`` adder counters (zero before ``start``).

        Each layer first takes its per-image weighted spike count; an
        image that reads no spike leaves the batch there, with its logits
        and later counters from ``tails[layer]``, and the kernel runs on
        the rows still live.
        """
        programs = self.compiled.programs
        n = x.shape[0]
        logits = np.empty((n, programs[-1].spec.out_features),
                          dtype=np.int64)
        adder_ops = np.zeros((n, len(programs)), dtype=np.int64)
        rows = np.arange(n)
        for column in range(start, len(programs)):
            program, cover = programs[column], self._covers[column]
            if cover is not None:  # flatten reads no spike
                spikes = self._popcount_sum(x, cover)
                live = spikes > 0
                if not live.all():
                    gone = rows[~live]
                    tail_logits, tail_ops = tails[column]
                    logits[gone] = tail_logits
                    adder_ops[gone, column + 1:] = tail_ops[column + 1:]
                    rows, x, spikes = rows[live], x[live], spikes[live]
                    if not rows.size:
                        return logits, adder_ops
                adder_ops[rows, column] = spikes * _adds_per_spike(program)
            x = getattr(self, f"_{program.kind}_out")(program, x)
        logits[rows] = x
        return logits, adder_ops

    @cached_property
    def _activation_dtype(self) -> np.dtype:
        """The narrowest integer type holding ``[0, 2**T - 1]``."""
        return np.min_scalar_type(
            radix.max_int(self.compiled.network.num_steps))

    @cached_property
    def _silent_outputs(self) -> tuple:
        """Per layer, its output for an input with no spike it reads.

        A conv or linear layer then holds only its bias, so the row is
        ``requantize(bias)`` (the bias itself for the output layer); a
        pool window sums to zero.  None of it depends on the data, so it
        is computed once per engine; :attr:`_tails` runs the rest of the
        network on it.
        """
        rows = []
        for program in self.compiled.programs:
            spec = program.spec
            if program.kind == "flatten":
                rows.append(None)
            elif program.kind == "pool":
                rows.append(np.zeros((), dtype=self._activation_dtype))
            elif program.kind == "linear" and spec.is_output:
                rows.append(spec.bias.astype(np.int64))
            else:
                rows.append(self._requantize(
                    spec, np.zeros((1, len(spec.bias)), dtype=np.int64))[0])
        return tuple(rows)

    @cached_property
    def _tails(self) -> tuple:
        """Per layer, ``(logits, adder_ops)`` of an image that reads no
        spike there: the rest of the network run once on the layer's
        silent output (None for flatten, where no image retires).

        None of it depends on the data, so it is built once per engine,
        from the last layer backwards: a tail run that retires at a
        later layer finds that layer's tail already built.  The tails
        under construction are a local list, so threads racing to build
        them each build a whole, equal table.
        """
        programs = self.compiled.programs
        if not getattr(programs[-1].spec, "is_output", False):
            raise SimulationError("compiled model has no output linear layer")
        tails: list = [None] * len(programs)
        for column in reversed(range(len(programs))):
            program, silent = programs[column], self._silent_outputs[column]
            if silent is None:
                continue
            spec = program.spec
            shape = ((spec.out_features,) if program.kind == "linear"
                     else _channel_last(spec.out_shape))
            logits, adder_ops = self._run_layers(
                np.broadcast_to(silent, (1,) + shape), column + 1, tails)
            tails[column] = logits[0], adder_ops[0]
        return tuple(tails)

    @cached_property
    def _covers(self) -> tuple:
        """Per layer, the flat cover its adder count weighs an input
        image's spike counts by (None for flatten).

        A conv tap ``(w, j)`` reads padded column ``w*stride + j``, so a
        spike in input column x feeds cover(x) shift cycles; the pool
        unit sums whole rows, adding a spike in input row r once per
        output row whose window covers r; a linear layer counts every
        spike once.  A cover is broadcast over the whole input image and
        stored as float32 when an image's largest weighted count,
        ``T * size * max(cover)``, stays within ``2**24`` (float32 adds
        nonnegative integers exactly up to there, in any order), float64
        otherwise (exact to ``2**53``).  None of it depends on the data,
        so it is built once per engine.
        """
        t = self.compiled.network.num_steps
        covers = []
        for program in self.compiled.programs:
            spec = program.spec
            if program.kind == "conv":
                c_in, h_in, w_in = spec.in_shape
                line = _window_cover(w_in, spec.padding, spec.out_shape[2],
                                     spec.stride, spec.kernel_size[1])
                cover = np.broadcast_to(line[:, None], (h_in, w_in, c_in))
            elif program.kind == "pool":
                c_in, h_in, w_in = spec.in_shape
                line = _window_cover(h_in, 0, spec.out_shape[1],
                                     spec.stride, spec.size)
                cover = np.broadcast_to(line[:, None, None],
                                        (h_in, w_in, c_in))
            elif program.kind == "linear":
                cover = np.ones(spec.in_features, dtype=np.int64)
            else:
                covers.append(None)
                continue
            bound = t * cover.size * int(cover.max())
            dtype = np.float32 if bound <= FLOAT32_EXACT else np.float64
            covers.append(cover.astype(dtype).reshape(-1))
        return tuple(covers)

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
    # Kernels: one layer's outputs for a batch whose images are all
    # live.  Conv and hidden linear layers requantize the GEMM's
    # ``(M, C_out)`` rows directly into activations.
    # ------------------------------------------------------------------
    def _requantize(self, spec, acc: np.ndarray) -> np.ndarray:
        """Bias, ReLU, rescale and saturate ``(M, C_out)`` accumulator
        rows into narrow activations."""
        return requantize(acc, spec.scales, self.compiled.network.num_steps,
                          channel_axis=-1, bias=spec.bias,
                          dtype=self._activation_dtype)

    def _conv_out(self, program: LayerProgram,
                  x: np.ndarray) -> np.ndarray:
        """Convolution activations, ``(N, H_out, W_out, C_out)``.

        A thin conv, whose output row is longer than a kernel row's
        ``kc * C_in`` values, unfolds along the output row (see
        :func:`_unfold` and the module docstring).
        """
        spec = program.spec
        n, h, w, c_in = x.shape
        pad = spec.padding
        c_out, h_out, w_out = spec.out_shape
        padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c_in),
                          dtype=program.gemm.dtype)
        padded[:, pad:pad + h, pad:pad + w] = x
        cols = _unfold(padded, spec.kernel_size, spec.stride, h_out, w_out,
                       k_major=w_out > spec.kernel_size[1] * c_in)
        return self._requantize(spec, program.gemm.products(cols)).reshape(
            n, h_out, w_out, c_out)

    def _pool_out(self, program: LayerProgram,
                  x: np.ndarray) -> np.ndarray:
        """Window sums shifted down, ``(N, H_out, W_out, C)``.

        The sums accumulate in the narrowest type holding a full window,
        ``size**2 * (2**T - 1)``, one strided slice per window offset.
        """
        spec = program.spec
        _, h_out, w_out = spec.out_shape
        size, stride = spec.size, spec.stride
        windows = [x[:, i:i + stride * h_out:stride,
                     j:j + stride * w_out:stride]
                   for i in range(size) for j in range(size)]
        sums = windows[0].astype(np.min_scalar_type(
            size * size * radix.max_int(self.compiled.network.num_steps)))
        for window in windows[1:]:
            sums += window
        sums >>= spec.shift
        return sums.astype(self._activation_dtype, copy=False)

    @staticmethod
    def _flatten_out(program: LayerProgram, x: np.ndarray) -> np.ndarray:
        """No adds: a buffer move, read out in the ``(C, H, W)`` order
        the first linear layer's weights expect."""
        return x.transpose(0, 3, 1, 2).reshape(x.shape[0], -1)

    def _linear_out(self, program: LayerProgram,
                    x: np.ndarray) -> np.ndarray:
        """Hidden activations, or the output layer's int64 logits,
        ``(N, out_features)``."""
        spec = program.spec
        if spec.is_output:
            return program.gemm.matmul(x) + spec.bias
        return self._requantize(spec, program.gemm.products(x))

    @staticmethod
    def _popcount_sum(x: np.ndarray, cover: np.ndarray) -> np.ndarray:
        """Per-image spike count weighted by a layer's flat ``cover``
        (:attr:`_covers`), ``(N,)`` int64: one BLAS matrix-vector
        product, exact in the cover's dtype."""
        pops = np.bitwise_count(x).reshape(x.shape[0], -1)
        return (pops.astype(cover.dtype) @ cover).astype(np.int64)


def _channel_last(shape: tuple) -> tuple:
    """A ``(C, H, W)`` layer shape as the engine holds it, ``(H, W, C)``."""
    c, h, w = shape
    return h, w, c


def _adds_per_spike(program: LayerProgram) -> int:
    """Adds one weighted input spike drives: a conv shift cycle drives
    the ``kr`` adder rows of every output channel's slot, a linear spike
    gates one add in every parallel output's adder, a pool adds it once."""
    spec = program.spec
    if program.kind == "conv":
        return spec.kernel_size[0] * spec.out_shape[0]
    return spec.out_features if program.kind == "linear" else 1


def _unfold(padded: np.ndarray, kernel_size: tuple, stride: int,
            h_out: int, w_out: int, k_major: bool) -> np.ndarray:
    """The ``(N * H_out * W_out, kr * kc * C_in)`` tap-major patch
    matrix of a zero-padded, C-contiguous channel-last batch.

    Row-major: one strided view whose last axis is a kernel row's
    ``kc * C_in`` contiguous values, copied once.  ``k_major``: one
    slice copy per tap ``(i, j)`` into a ``(kr, kc, C_in, N, H_out,
    W_out)`` buffer, each moving whole output rows, returned transposed
    — the same matrix in F order.
    """
    n, _, _, c_in = padded.shape
    kr, kc = kernel_size
    if k_major:
        cols = np.empty((kr, kc, c_in, n, h_out, w_out), dtype=padded.dtype)
        for i in range(kr):
            for j in range(kc):
                cols[i, j] = padded[:, i:i + stride * h_out:stride,
                                    j:j + stride * w_out:stride
                                    ].transpose(3, 0, 1, 2)
        return cols.reshape(kr * kc * c_in, -1).T
    sn, sh, sw, sc = padded.strides
    patches = as_strided(
        padded, shape=(n, h_out, w_out, kr, kc * c_in),
        strides=(sn, sh * stride, sw * stride, sh, sc), writeable=False)
    return patches.reshape(n * h_out * w_out, kr * kc * c_in)


def _window_cover(length: int, padding: int, count: int, stride: int,
                  size: int) -> np.ndarray:
    """How many of ``count`` windows, ``size`` wide and ``stride``
    apart over ``length`` positions padded by ``padding`` each side,
    cover each unpadded position, ``(length,)`` int64."""
    cover = np.zeros(length + 2 * padding, dtype=np.int64)
    for start in range(0, count * stride, stride):
        cover[start:start + size] += 1
    return cover[padding:padding + length]
