"""Measured deployment constants: calibrate, persist, install.

Two figures the host-side runtime would otherwise guess depend on the
deployed model and on the host: the byte ratio below which COO wire
frames beat raw buffers, and the per-unit fabric dispatch cost the
saturation-aware shard sizer amortizes.  This module makes them
measured:

* :func:`calibrate_deployment` times COO and raw frame round trips on
  probe batches across a density ladder (and, on request, a one-lane
  process round trip), fits the crossover, and persists a
  :class:`CalibrationTable` in the artifact store **keyed by the warm
  cache's** :func:`~repro.core.engine.cache.content_key`, so the table
  travels with the compiled model it describes;
* :func:`install_table` registers a table process-wide and wires its
  COO byte ratio into :mod:`repro.runtime.codec` (unless pinned by
  ``REPRO_COO_RATIO``); :func:`lookup_table` is how the sweep driver
  finds a deployment's dispatch cost.

Neither figure can change an output bit: the codec round-trips either
representation exactly, and shard sizes only move scheduling.  The
engine needs no calibration: it skips silent images by a per-image
spike count that is exact, not by a measured threshold.

Probe batches are event-style frames (one bright blob on a dark plane,
optionally fully silent frames); densities are realized nonzero
fractions.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.config import AcceleratorConfig
from repro.core.engine.cache import content_key

__all__ = [
    "CalibrationTable",
    "DEFAULT_COO_RATIO",
    "DEFAULT_DISPATCH_COST_S",
    "calibrate_deployment",
    "calibration_store_key",
    "clear_calibration_tables",
    "event_silent_frac",
    "install_table",
    "lookup_table",
    "measure_dispatch_cost",
    "probe_batch",
]

#: What the codec uses when no table exists.
DEFAULT_COO_RATIO = 0.9           # codec: COO wins below this byte ratio


def __getattr__(name: str):
    # DEFAULT_DISPATCH_COST_S is the fabric's figure and lives in
    # repro.runtime; re-export it lazily, because the runtime imports
    # this package while it loads.
    if name == "DEFAULT_DISPATCH_COST_S":
        from repro.runtime import DEFAULT_DISPATCH_COST_S
        return DEFAULT_DISPATCH_COST_S
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_PROBE_DENSITIES = (0.02, 0.05, 0.1, 0.25, 0.5, 0.7, 0.9)


# ----------------------------------------------------------------------
# The table and its process-local registry
# ----------------------------------------------------------------------
@dataclass
class CalibrationTable:
    """Measured constants for one deployment (one ``content_key``).

    ``probes`` keeps the raw (byte ratio, coo_s, raw_s) points for the
    record; nothing reads them back.
    """

    content_key: str
    coo_ratio: float = DEFAULT_COO_RATIO
    dispatch_cost_s: float | None = None
    probe_images: int = 0
    densities: tuple = ()
    probes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "content_key": self.content_key,
            "coo_ratio": self.coo_ratio,
            "dispatch_cost_s": self.dispatch_cost_s,
            "probe_images": self.probe_images,
            "densities": list(self.densities),
            "probes": self.probes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationTable":
        """Load a stored table; keys no longer measured (an older
        table's routing, per-layer and popcount crossovers) are
        ignored."""
        return cls(
            content_key=payload["content_key"],
            coo_ratio=float(payload["coo_ratio"]),
            dispatch_cost_s=(None if payload.get("dispatch_cost_s") is None
                             else float(payload["dispatch_cost_s"])),
            probe_images=int(payload.get("probe_images", 0)),
            densities=tuple(payload.get("densities", ())),
            probes=payload.get("probes", {}),
        )


_LOCK = threading.Lock()
_TABLES: dict[str, CalibrationTable] = {}
_MISSING: set[str] = set()        # negative cache of store lookups


def calibration_store_key(key: str) -> str:
    """Artifact-store key for one deployment's table."""
    return f"calibration_{key}"


def install_table(table: CalibrationTable) -> None:
    """Register a table process-wide and wire it into the codec.

    The codec ratio is process-global, so the most recently installed
    table wins — ``REPRO_COO_RATIO`` pins it regardless.
    """
    with _LOCK:
        _TABLES[table.content_key] = table
        _MISSING.discard(table.content_key)
    try:
        from repro.runtime import codec
    except Exception:                      # codec layer optional here
        return
    codec.set_coo_ratio(table.coo_ratio)


def lookup_table(key: str, store=None) -> CalibrationTable | None:
    """The table for a ``content_key``: memory first, then the store.

    A disk hit is installed (so later constructions skip the read); a
    miss is negatively cached until :func:`install_table` or
    :func:`clear_calibration_tables` changes the answer.  Corrupt or
    unreadable records read as "no table" — calibration is a speed
    layer, never a correctness dependency.
    """
    with _LOCK:
        table = _TABLES.get(key)
        if table is not None:
            return table
        if store is None and key in _MISSING:
            return None
    if store is None:
        try:
            from repro.harness.artifacts import default_store
            store = default_store()
        except Exception:
            return None
    try:
        skey = calibration_store_key(key)
        if store.has_result(skey):
            table = CalibrationTable.from_dict(store.load_result(skey))
            install_table(table)
            return table
    except Exception:
        pass
    with _LOCK:
        _MISSING.add(key)
    return None


def clear_calibration_tables() -> None:
    """Forget every installed table and negative-cache entry (tests)."""
    with _LOCK:
        _TABLES.clear()
        _MISSING.clear()


# ----------------------------------------------------------------------
# Probe inputs and crossover fitting
# ----------------------------------------------------------------------
def event_silent_frac(density: float) -> float:
    """Fully-silent frame fraction an event stream at ``density`` carries.

    Address-event sensors emit nothing between events, so the sparser
    the stream the more frames are entirely empty: three quarters of
    the frames at the sparsest probes, tapering to none by 25% density.
    Probes and benches share this prior so calibration and benchmarks
    see the same event workloads.
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


def _best_time(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _crossover(points: list[tuple[float, float, float]]) -> float:
    """Byte ratio where raw frames start beating COO frames.

    ``points`` are ``(ratio, coo_s, raw_s)``.  The fit picks the
    threshold that minimizes total regret over the probe set: every
    candidate boundary (below the first probe, between each consecutive
    pair, and 1.0) is scored by the wall clock a codec using it would
    save versus the representation it switches away from, and the
    best-scoring boundary wins.  A single noisy probe therefore only
    shifts the fit if its margin outweighs everything the rest of the
    probes agree on — unlike a walk-to-first-crossing, which one bad
    point at the low end can pin to ~0.  All-COO-wins fits 1.0;
    raw-wins-everywhere fits below the first probe; no probe at all
    keeps :data:`DEFAULT_COO_RATIO`.
    """
    points = sorted(points)
    if not points:
        return DEFAULT_COO_RATIO
    candidates = [points[0][0] / 2.0]
    candidates += [(lo[0] + hi[0]) / 2.0
                   for lo, hi in zip(points, points[1:])]
    candidates.append(1.0)

    def saved(threshold: float) -> float:
        return sum((raw_s - coo_s) if ratio <= threshold
                   else (coo_s - raw_s)
                   for ratio, coo_s, raw_s in points)

    # Ties break toward the higher threshold (prefer COO when the
    # probes cannot tell the difference — its win depends on the
    # workload the probes were drawn from).
    return float(max(candidates, key=lambda t: (saved(t), t)))


def _probe_codec(batches: dict, rounds: int) -> tuple[float, list]:
    """COO-vs-raw byte-ratio crossover on encode+decode round trips."""
    try:
        from repro.runtime import codec
    except Exception:
        return DEFAULT_COO_RATIO, []

    def round_trip(array, ratio):
        frame = codec.encode_frame({}, {"x": array}, coo_ratio=ratio)
        hlen, blen = codec.parse_frame_prefix(
            frame[:codec.FRAME_PREFIX_LEN])
        header = frame[codec.FRAME_PREFIX_LEN:
                       codec.FRAME_PREFIX_LEN + hlen]
        codec.decode_frame(header, frame[codec.FRAME_PREFIX_LEN + hlen:])

    points = []
    for images in batches.values():
        array = np.ascontiguousarray(images)
        nnz = int(np.count_nonzero(array))
        if not array.size or array.size < codec._SPARSE_MIN_ELEMENTS:
            continue
        byte_ratio = nnz * (4 + array.itemsize) / array.nbytes
        points.append((
            byte_ratio,
            _best_time(lambda: round_trip(array, float("inf")), rounds),
            _best_time(lambda: round_trip(array, 0.0), rounds)))
    # Never ship COO frames that are *larger* than raw, however fast:
    # wire bytes are the scarcer resource on remote lanes.
    return min(max(_crossover(points), 0.1), 1.0), [
        [round(r, 4), s, t] for r, s, t in points]


def measure_dispatch_cost(network, config: AcceleratorConfig,
                          calibration: LatencyCalibration = DEFAULT_LATENCY,
                          items: int = 8) -> float:
    """Measured per-unit fabric overhead of a warmed process lane.

    Times single-image work items end to end through a one-lane process
    group and subtracts the inline compute cost — what remains is the
    dispatch tax (submit, shm/pickle transfer, result shipping) the
    saturation-aware shard sizer amortizes.
    """
    from repro.core.engine.cache import warm_engine
    from repro.runtime import (
        Deployment,
        WorkItem,
        WorkerGroup,
        create_workers,
    )

    rng = np.random.default_rng(0)
    images = rng.random((items + 1,) + tuple(network.input_shape))
    engine = warm_engine(network, config, "vectorized", calibration)
    inline = _best_time(lambda: engine.run_batch(images[:1]), 3)
    group = WorkerGroup(create_workers(["process"]), deployments=[
        Deployment(network=network, config=config,
                   calibration=calibration)])
    try:
        group.start()
        group.run([WorkItem(item_id=0, deployment=0,
                            images=images[:1])])    # warm the lane
        start = time.perf_counter()
        group.run([WorkItem(item_id=i, deployment=0,
                            images=images[i + 1:i + 2])
                   for i in range(items)])
        per_item = (time.perf_counter() - start) / items
    finally:
        group.stop()
    return max(per_item - inline, 1e-5)


# ----------------------------------------------------------------------
# The calibration pass
# ----------------------------------------------------------------------
def calibrate_deployment(
    network,
    config: AcceleratorConfig | None = None,
    calibration: LatencyCalibration = DEFAULT_LATENCY,
    *,
    store=None,
    force: bool = False,
    batch: int | None = None,
    densities: tuple = _PROBE_DENSITIES,
    rounds: int | None = None,
    measure_dispatch: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[CalibrationTable, bool]:
    """Measure (or reload) a deployment's :class:`CalibrationTable`.

    Returns ``(table, cached)``: ``cached`` is True when the table was
    served from the artifact store instead of re-measured.  Either way
    the table is installed process-wide.  ``measure_dispatch``
    additionally times a one-lane process round trip (forks a worker; a
    second or two) for the sweep driver's saturation-aware shard
    sizing.
    """
    if store is None:
        from repro.harness.artifacts import default_store
        store = default_store()
    config = config or AcceleratorConfig.for_network(network)
    key = content_key(network, config, calibration)
    skey = calibration_store_key(key)
    if not force and store.has_result(skey):
        table = CalibrationTable.from_dict(store.load_result(skey))
        install_table(table)
        return table, True

    fast = bool(os.environ.get("REPRO_FAST"))
    batch = batch or (16 if fast else 32)
    rounds = rounds or (6 if fast else 8)
    rng = rng or np.random.default_rng(0)
    batches = {d: probe_batch(network.input_shape, d, batch, rng)
               for d in densities}

    coo_ratio, codec_points = _probe_codec(batches, rounds)
    dispatch = (measure_dispatch_cost(network, config, calibration)
                if measure_dispatch else None)

    table = CalibrationTable(
        content_key=key,
        coo_ratio=round(coo_ratio, 4),
        dispatch_cost_s=dispatch,
        probe_images=batch,
        densities=tuple(round(float(np.count_nonzero(b) / b.size), 4)
                        for b in batches.values()),
        probes={"codec": codec_points},
    )
    store.save_result(skey, table.to_dict())
    install_table(table)
    return table, False
