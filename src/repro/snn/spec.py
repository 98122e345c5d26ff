"""Quantized-network specification shared by the SNN simulator and the
hardware model.

``ann_to_snn`` (see ``repro.snn.convert``) lowers a trained float ANN into a
:class:`QuantizedNetwork`: a list of integer-weight layer specs plus the
per-layer requantization scales.  Three independent executors consume this
single specification —

* ``SNNModel.forward_ints``   — whole-tensor integer reference semantics,
* ``SNNModel.forward_spikes`` — step-by-step radix spike-train simulation,
* ``repro.core.Accelerator``  — the hardware functional model,

and the test suite asserts all three agree bit-exactly (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConversionError, ShapeError

__all__ = [
    "QuantConvSpec",
    "QuantPoolSpec",
    "QuantLinearSpec",
    "FlattenSpec",
    "QuantizedNetwork",
    "requantize",
]


def requantize(
    acc: np.ndarray, scales: np.ndarray, num_steps: int, channel_axis: int
) -> np.ndarray:
    """The hardware requantization stage: ReLU + rescale + saturate.

    ``a_out = clip(floor(acc * M + 1/2), 0, 2**T - 1)`` with a per-channel
    scale ``M`` broadcast along ``channel_axis``.  The ``+1/2`` makes the
    truncating datapath round to nearest; in hardware it is free — a
    per-channel constant of ``1/(2M)`` folded into the bias that is added
    to the accumulator anyway.  At T=3 (eight activation levels) this
    half-LSB recovers several accuracy points, so every executor must use
    exactly this function.
    """
    scales = np.asarray(scales, dtype=np.float64)
    shape = [1] * acc.ndim
    shape[channel_axis] = -1
    # In place on one float64 copy: the formula's operations in its
    # order, without an activation-sized temporary per step.  Each
    # temporary is a fresh allocation per batch that the C allocator
    # may hand back to the OS and fault in again next batch.
    scaled = acc.astype(np.float64)
    scaled *= scales.reshape(shape)
    scaled += 0.5
    np.floor(scaled, out=scaled)
    np.clip(scaled, 0, (1 << num_steps) - 1, out=scaled)
    return scaled.astype(np.int64)


class _ReadOnlyArrays:
    """A layer whose weight, bias and scale arrays are read-only, after
    construction and after unpickling alike, like the frozen dataclass.

    A network's content hash is memoized per instance
    (:func:`repro.core.engine.cache.content_key`), which is sound only
    if nothing can write to the arrays afterwards.
    """

    def _freeze_arrays(self) -> None:
        for array in (self.weights, self.bias, self.scales):
            array.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._freeze_arrays()


@dataclass(frozen=True)
class QuantConvSpec(_ReadOnlyArrays):
    """An integer convolution layer (weights, bias, requantization).

    ``weights`` has shape ``(C_out, C_in, Kr, Kc)`` with small signed
    integers; ``bias`` is pre-scaled into accumulator units; ``scales`` is
    the per-output-channel requantization factor ``M``.
    """

    weights: np.ndarray
    bias: np.ndarray
    scales: np.ndarray
    stride: int
    padding: int
    in_shape: tuple[int, int, int]   # (C_in, H, W)
    out_shape: tuple[int, int, int]  # (C_out, H_out, W_out)

    kind: str = field(default="conv", init=False)

    def __post_init__(self) -> None:
        if self.weights.ndim != 4:
            raise ShapeError(
                f"conv weights must be 4-D, got {self.weights.shape}"
            )
        c_out = self.weights.shape[0]
        if self.bias.shape != (c_out,) or self.scales.shape != (c_out,):
            raise ShapeError("bias/scales must have one entry per channel")
        self._freeze_arrays()

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]

    @property
    def num_weights(self) -> int:
        return int(self.weights.size)

    @property
    def macs(self) -> int:
        """Accumulate operations per time step (for energy accounting)."""
        _, h_out, w_out = self.out_shape
        return int(self.weights.size * h_out * w_out
                   // (self.weights.shape[2] * self.weights.shape[3])
                   * self.weights.shape[2] * self.weights.shape[3])


@dataclass(frozen=True)
class QuantPoolSpec:
    """2×2 (or general) sum pooling with an exact right-shift divide.

    ``a_out = (sum of window) >> shift`` where ``2**shift == size**2``; the
    window size must therefore be a power of two, which every evaluated
    network satisfies (all use 2×2).
    """

    size: int
    stride: int
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]

    kind: str = field(default="pool", init=False)

    def __post_init__(self) -> None:
        count = self.size * self.size
        if count & (count - 1):
            raise ConversionError(
                f"pool window {self.size}x{self.size} is not a power of two; "
                "the hardware divides by right-shift"
            )

    @property
    def shift(self) -> int:
        """Right-shift amount implementing the divide by ``size**2``."""
        return int(np.log2(self.size * self.size))


@dataclass(frozen=True)
class QuantLinearSpec(_ReadOnlyArrays):
    """An integer fully-connected layer.

    ``is_output`` marks the classifier head: its accumulator is the logit
    vector and is *not* requantized (argmax happens at full precision, as
    in the accelerator's output stage).
    """

    weights: np.ndarray  # (N_out, N_in)
    bias: np.ndarray
    scales: np.ndarray
    is_output: bool
    in_features: int
    out_features: int

    kind: str = field(default="linear", init=False)

    def __post_init__(self) -> None:
        if self.weights.shape != (self.out_features, self.in_features):
            raise ShapeError(
                f"linear weights {self.weights.shape} do not match "
                f"({self.out_features}, {self.in_features})"
            )
        self._freeze_arrays()

    @property
    def num_weights(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class FlattenSpec:
    """The 2-D → 1-D handoff (feature maps move to the 1-D ping-pong pair)."""

    in_shape: tuple[int, int, int]
    out_features: int

    kind: str = field(default="flatten", init=False)


LayerSpec = QuantConvSpec | QuantPoolSpec | QuantLinearSpec | FlattenSpec


@dataclass(frozen=True)
class QuantizedNetwork:
    """A fully lowered network: ordered layer specs + global parameters."""

    layers: tuple
    num_steps: int
    weight_bits: int
    input_shape: tuple[int, int, int]
    num_classes: int

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConversionError("quantized network has no layers")
        if not isinstance(self.layers, tuple):
            object.__setattr__(self, "layers", tuple(self.layers))

    def conv_layers(self) -> list[QuantConvSpec]:
        return [l for l in self.layers if l.kind == "conv"]

    def linear_layers(self) -> list[QuantLinearSpec]:
        return [l for l in self.layers if l.kind == "linear"]

    def pool_layers(self) -> list[QuantPoolSpec]:
        return [l for l in self.layers if l.kind == "pool"]

    @property
    def num_parameters(self) -> int:
        """Total weight count (the paper quotes 28.5M for VGG-11)."""
        return sum(
            l.num_weights for l in self.layers
            if l.kind in ("conv", "linear")
        )

    @property
    def parameter_bytes(self) -> int:
        """Parameter storage at ``weight_bits`` resolution, in bytes."""
        return (self.num_parameters * self.weight_bits + 7) // 8
