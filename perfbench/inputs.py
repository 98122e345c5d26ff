"""Seeded inputs: images, the serving duplicate schedule and arrivals.

Every generator takes the run's ``--seed`` plus a fixed stream tag, so
the same seed reproduces byte-identical inputs and the streams stay
independent of each other.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.engine.calibrate import probe_batch

# Stream tags: one independent generator per kind of input.
_VGG, _EVENTS, _SERVE, _SCHEDULE, _ARRIVALS, _WARMUP, _SAMPLE = range(7)

#: Nonzero pixel density of event-style frames (the sparse workloads).
EVENT_DENSITY = 0.03


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def dense_images(seed: int, count: int, shape=(3, 32, 32)) -> np.ndarray:
    """Dense CIFAR-shaped images, uniform in [0, 1)."""
    return _rng(seed, _VGG).uniform(0.0, 1.0, size=(count,) + tuple(shape))


def event_images(seed: int, count: int, shape=(1, 32, 32),
                 silent: bool = True) -> np.ndarray:
    """Event-style frames at :data:`EVENT_DENSITY`.

    With ``silent`` (the sweep stream) three quarters of the frames are
    all-zero, as address-event sensors emit between events; without it
    (the serving stream) every frame carries its own blob, so no two
    frames are byte-identical unless the duplicate schedule says so.
    """
    rng = _rng(seed, _EVENTS if silent else _SERVE)
    return probe_batch(shape, EVENT_DENSITY, count, rng,
                       silent_frac=None if silent else 0.0)


def warmup_images(seed: int, count: int, shape) -> np.ndarray:
    """Images for the set-up warm-up batch, disjoint from the workload."""
    return _rng(seed, _WARMUP).uniform(0.5, 1.0,
                                       size=(count,) + tuple(shape))


def duplicate_schedule(seed: int, count: int, pool: int,
                       repeat_frac: float = 0.25, nearest: int = 16,
                       farthest: int = 1024) -> np.ndarray:
    """Image index per request; some requests repeat an earlier image.

    About ``repeat_frac`` of the requests resend the image of a request
    ``nearest``..``farthest`` positions earlier, with the distance drawn
    log-uniformly, so a bounded result cache sees both hits and
    evictions.  The other requests take the next image of the pool in
    order (wrapping), and the pool is large enough that a wrapped image
    is far outside any cache window.
    """
    rng = _rng(seed, _SCHEDULE)
    ids = np.empty(count, dtype=np.int64)
    fresh = 0
    log_lo, log_hi = math.log(nearest), math.log(farthest)
    for i in range(count):
        if i >= nearest and rng.random() < repeat_frac:
            reach = min(farthest, i)
            distance = int(round(math.exp(rng.uniform(
                log_lo, math.log(reach)))))
            ids[i] = ids[i - min(max(distance, nearest), reach)]
        else:
            ids[i] = fresh % pool
            fresh += 1
    return ids


def poisson_arrivals(seed: int, rate_rps: float,
                     duration_s: float) -> np.ndarray:
    """Send offsets (seconds from phase start) of a Poisson process."""
    rng = _rng(seed, _ARRIVALS)
    gaps = rng.exponential(1.0 / rate_rps,
                           size=int(rate_rps * duration_s * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration_s]


def check_sample(seed: int, population: int, count: int) -> np.ndarray:
    """Sorted indices of the images the correctness gate recomputes."""
    count = min(count, population)
    return np.sort(_rng(seed, _SAMPLE).choice(population, size=count,
                                              replace=False))
