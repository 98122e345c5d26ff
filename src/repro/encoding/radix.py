"""Radix (binary, MSB-first) neural encoding.

This is the *emerging neural encoding* the accelerator is built around
(Wang et al., arXiv:2105.06943).  A real activation ``a`` in ``[0, 1)`` is
quantized to a ``T``-bit integer

    ``q = clip(floor(a * 2**T), 0, 2**T - 1)``

and transmitted as a spike train of length ``T`` whose step ``t`` carries bit
``T - 1 - t`` of ``q`` — i.e. the most significant bit first.  A downstream
neuron reconstructs the weighted sum exactly by left-shifting its
accumulator between time steps (see ``repro.core.output_logic``), which is
why the spike *order* matters and rate-coding hardware cannot run these
models.

The functions here are the single source of truth for the encoding; the SNN
simulator and the hardware model are tested bit-exactly against them.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.spike_train import SpikeTrain
from repro.errors import EncodingError

__all__ = [
    "encode_ints",
    "decode_ints",
    "encode_real",
    "decode_real",
    "quantize_real",
    "step_weight",
    "max_int",
]


def _check_num_steps(num_steps: int) -> None:
    if not isinstance(num_steps, (int, np.integer)) or num_steps < 1:
        raise EncodingError(
            f"spike train length must be a positive integer, got {num_steps!r}"
        )
    if num_steps > 30:
        raise EncodingError(
            f"spike train length {num_steps} exceeds the supported maximum "
            "of 30 (accumulators are modelled as int64)"
        )


def max_int(num_steps: int) -> int:
    """Largest integer representable by a radix train of length ``num_steps``."""
    _check_num_steps(num_steps)
    return (1 << num_steps) - 1


def step_weight(t: int, num_steps: int) -> int:
    """Weight ``2**(T-1-t)`` of a spike at time step ``t``."""
    _check_num_steps(num_steps)
    if not 0 <= t < num_steps:
        raise EncodingError(f"time step {t} out of range for T={num_steps}")
    return 1 << (num_steps - 1 - t)


def encode_ints(values: np.ndarray, num_steps: int) -> SpikeTrain:
    """Encode non-negative integers into an MSB-first radix spike train.

    Parameters
    ----------
    values:
        Integer array; every element must lie in ``[0, 2**num_steps)``.
    num_steps:
        Spike train length ``T``.
    """
    _check_num_steps(num_steps)
    values = np.asarray(values)
    if values.ndim == 0:
        values = values.reshape(1)
    if not np.issubdtype(values.dtype, np.integer):
        raise EncodingError(
            f"encode_ints expects integer input, got dtype {values.dtype}"
        )
    top = max_int(num_steps)
    if values.size and (int(values.min()) < 0 or int(values.max()) > top):
        raise EncodingError(
            f"values must lie in [0, {top}] for a train of length {num_steps}"
        )
    shifts = np.arange(num_steps - 1, -1, -1, dtype=np.int64)
    planes = (values[np.newaxis, ...].astype(np.int64)
              >> shifts.reshape((-1,) + (1,) * values.ndim)) & 1
    return SpikeTrain(planes.astype(np.uint8))


def decode_ints(train: SpikeTrain) -> np.ndarray:
    """Invert :func:`encode_ints`; returns the integer tensor."""
    num_steps = train.num_steps
    _check_num_steps(num_steps)
    weights = np.array(
        [step_weight(t, num_steps) for t in range(num_steps)], dtype=np.int64
    )
    shaped = weights.reshape((-1,) + (1,) * (train.bits.ndim - 1))
    return (train.bits.astype(np.int64) * shaped).sum(axis=0)


def quantize_real(values: np.ndarray, num_steps: int,
                  dtype=np.int64) -> np.ndarray:
    """Quantize reals in ``[0, 1)`` to the ``T``-bit grid used by the encoder.

    Values outside ``[0, 1)`` are clipped — this mirrors the saturating
    behaviour of the hardware requantization stage.  ``dtype`` is the
    integer type of the result; any type holding ``[0, 2**T - 1]`` is
    exact.
    """
    _check_num_steps(num_steps)
    values = np.asarray(values, dtype=np.float64)
    scaled = values * (1 << num_steps)
    np.floor(scaled, out=scaled)
    return np.clip(scaled, 0, max_int(num_steps), out=scaled).astype(dtype)


def encode_real(values: np.ndarray, num_steps: int) -> SpikeTrain:
    """Quantize reals in ``[0, 1)`` and radix-encode them in one step."""
    return encode_ints(quantize_real(values, num_steps), num_steps)


def decode_real(train: SpikeTrain) -> np.ndarray:
    """Decode a radix train back to reals on the ``T``-bit grid in ``[0, 1)``."""
    return decode_ints(train).astype(np.float64) / (1 << train.num_steps)
