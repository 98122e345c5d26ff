"""Event-style probe inputs shared by tests, benchmarks and perfbench.

:func:`probe_batch` draws frames at a target nonzero density (one
bright blob on a dark plane, with fully silent frames mixed in at the
rate :func:`event_silent_frac` gives), so every consumer sees the same
event workloads.  The module keeps this path because the perfbench
inputs import :func:`probe_batch` from here.  Nothing in it is
calibrated: the codec's COO byte ratio and the fabric's per-chunk
dispatch cost are the fixed
:data:`~repro.runtime.codec.DEFAULT_COO_RATIO` and
:data:`~repro.runtime.DEFAULT_DISPATCH_COST_S`; neither can change an
output bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["event_silent_frac", "probe_batch"]


def event_silent_frac(density: float) -> float:
    """Fully-silent frame fraction an event stream at ``density`` carries.

    Address-event sensors emit nothing between events, so the sparser
    the stream the more frames are entirely empty: three quarters of
    the frames at the sparsest probes, tapering to none by 25% density.
    """
    return max(0.0, min(0.75, 1.0 - 4.0 * density))


def probe_batch(shape, density: float, batch: int,
                rng: np.random.Generator,
                silent_frac: float | None = None) -> np.ndarray:
    """Event-style frames at a target nonzero density.

    Each live frame carries one bright square blob (values in
    ``[0.5, 1)``, so they quantize to nonzero spikes at any ``T``) sized
    for the requested pixel density; ``silent_frac`` of the frames are
    fully silent, mirroring address-event streams between events — it
    defaults to :func:`event_silent_frac` of the target density.  The
    realized density is ``count_nonzero / size``.
    """
    shape = tuple(shape)
    h, w = shape[-2], shape[-1]
    if silent_frac is None:
        silent_frac = event_silent_frac(density)
    images = np.zeros((batch,) + shape, dtype=np.float64)
    live_density = density / max(1.0 - silent_frac, 1e-9)
    side = int(round(math.sqrt(live_density * h * w)))
    side = max(1, min(side, h, w))
    # Deterministic silent count (not a per-frame coin flip) so the
    # realized batch density lands on target instead of wobbling with
    # the binomial draw.
    num_silent = int(round(batch * silent_frac))
    live_indices = rng.permutation(batch)[num_silent:]
    for i in live_indices:
        r = int(rng.integers(0, h - side + 1))
        c = int(rng.integers(0, w - side + 1))
        images[i, ..., r:r + side, c:c + side] = rng.uniform(
            0.5, 1.0, size=shape[:-2] + (side, side))
    return images
