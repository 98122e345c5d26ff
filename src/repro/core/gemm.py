"""A layer's weights as an exact floating-point GEMM operand.

The batched engines compute every conv and linear layer as one integer
matrix product, run through BLAS in floating point.  That is exact as
long as every partial sum is an integer the float type represents
exactly: activations are ``T``-step radix values in ``[0, 2**T - 1]``
and weights are small signed integers, so a dot product of ``K`` terms is
bounded by ``K * (2**T - 1) * max|w|`` whatever order BLAS adds them in.

float32 holds every integer up to ``2**24``.  :class:`GemmWeights`
therefore splits ``K`` into chunks of ``2**24 // ((2**T - 1) * max|w|)``
columns, runs each chunk as a float32 GEMM and adds the chunk results
in float64, exact below ``2**53``.  For the evaluated models (3-bit
weights, T <= 6) one chunk covers the whole layer.  A layer where even
a single product exceeds ``2**24`` (large ``T``) uses one float64 GEMM
instead, exact below ``2**53``.

The float weight matrix is built on first use and then kept, so the
per-batch path does no weight-sized conversion.  It lives on the
compiled layer program, so every engine sharing a compiled model
shares one matrix.  It is built lazily rather than at compile time: a
process that forks lanes after compiling would otherwise count it in
every lane's resident set.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["FLOAT32_EXACT", "GemmWeights"]

#: Every integer of magnitude up to this is exact in float32.
FLOAT32_EXACT = 1 << 24

_BUILD_LOCK = threading.Lock()


class GemmWeights:
    """Exact integer products against one layer's ``(C_out, K)`` weights."""

    def __init__(self, weights: np.ndarray, num_steps: int) -> None:
        self.weights = weights
        self.num_steps = num_steps
        #: Columns per float32 chunk; 0 when one product can exceed
        #: ``2**24`` and the layer takes the float64 path.  Set with
        #: the matrix, on first use.
        self.chunk = 0
        self._matrix: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        """The weights as a ``(C_out, K)`` float matrix (built once)."""
        matrix = self._matrix
        if matrix is None:
            with _BUILD_LOCK:
                if self._matrix is None:
                    self._matrix = self._build()
                matrix = self._matrix
        return matrix

    @property
    def dtype(self) -> type:
        """float32 when chunking keeps the layer exact, else float64."""
        return self.matrix.dtype.type

    def _build(self) -> np.ndarray:
        weights = self.weights
        # max|w| from the extremes: no weight-sized temporary.
        w_max = max(int(weights.max()), -int(weights.min()), 1)
        self.chunk = FLOAT32_EXACT // (((1 << self.num_steps) - 1) * w_max)
        dtype = np.float32 if self.chunk else np.float64
        return weights.reshape(weights.shape[0], -1).astype(dtype)

    def products(self, cols: np.ndarray) -> np.ndarray:
        """``cols @ W.T``, ``(M, C_out)``, as exact integers held in
        float32 (one chunk) or float64.

        ``cols`` is ``(M, K)`` integer-valued activations (any numeric
        dtype).  Chunk results are exact integers below ``2**24`` and add
        up exactly in float64, which holds every integer below ``2**53``,
        so a caller that goes on in floating point (requantization) needs
        no integer round trip.
        """
        weights = self.matrix
        cols = cols.astype(weights.dtype, copy=False)
        k = cols.shape[1]
        step = self.chunk or k
        if k <= step:
            return cols @ weights.T
        acc = np.zeros((cols.shape[0], weights.shape[0]), dtype=np.float64)
        for lo in range(0, k, step):
            acc += cols[:, lo:lo + step] @ weights[:, lo:lo + step].T
        return acc

    def matmul(self, cols: np.ndarray) -> np.ndarray:
        """``cols @ W.T`` as exact int64, ``(M, C_out)``."""
        return self.products(cols).astype(np.int64)
