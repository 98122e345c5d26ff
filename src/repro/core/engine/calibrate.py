"""Measured sparsity crossovers: calibrate, persist, route.

The sparse engine's speed hinges on three guesses: the batch density
above which a whole batch runs faster on the dense kernels
(``DEFAULT_ROUTE_DENSITY``), the per-hook density above which
gather/scatter loses to the dense kernel (``DEFAULT_DENSE_FALLBACK``),
and the byte ratio below which COO wire frames beat raw buffers.  All
three crossovers depend on the *deployed model* (layer geometry, kernel
sizes, batch shapes) and on the host — not on anything a constant can
know.  This module makes them measured:

* :func:`calibrate_deployment` runs a few probe batches per layer/hook
  through the sparse and dense code paths, times both, and fits the
  density where they cross.  The result is a :class:`CalibrationTable`
  persisted in the artifact store **keyed by the warm cache's**
  :func:`~repro.core.engine.cache.content_key`, so the table travels
  with the compiled model it describes.
* :func:`thresholds_for` is the engine-side lookup:
  :class:`~repro.core.engine.sparse.SparseEngine` consults it at
  construction time, falling back to the historical constants when no
  table exists.  Thresholds only move *where* a batch or a hook
  switches strategy — both strategies return the exact same integers,
  so calibration can never change a bit.
* :func:`install_table` also wires the measured COO byte ratio into
  :mod:`repro.runtime.codec` (unless pinned by ``REPRO_COO_RATIO``).

Probe batches are event-style frames (one bright blob on a dark plane,
optionally fully silent frames) because that is the workload whose
zeros this whole engine exists to skip; densities are realized nonzero
fractions, the same metric the runtime gates test.
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
from repro.core.engine.cache import content_key, warm_compile
from repro.core.engine.vectorized import VectorizedEngine
from repro.nn import functional as F

__all__ = [
    "CalibrationTable",
    "DEFAULT_COO_RATIO",
    "DEFAULT_DENSE_FALLBACK",
    "DEFAULT_DISPATCH_COST_S",
    "DEFAULT_ROUTE_DENSITY",
    "EngineThresholds",
    "calibrate_deployment",
    "calibration_store_key",
    "clear_calibration_tables",
    "event_silent_frac",
    "install_table",
    "lookup_table",
    "measure_dispatch_cost",
    "probe_batch",
    "thresholds_for",
]

#: The historical constants — what every engine uses when no table
#: exists.  Calibration replaces them with measurements, per deployment.
DEFAULT_DENSE_FALLBACK = 0.85     # per-hook gather -> dense crossover
DEFAULT_ROUTE_DENSITY = 0.25      # sparse: batches denser go vectorized
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
    """Measured crossovers for one deployment (one ``content_key``).

    Densities are nonzero fractions in the metric each runtime gate
    tests: im2col patch-row activity for conv hooks, active-tap fraction
    for linear hooks, element density for batch routing.
    ``probes`` keeps the raw (density, sparse_s, dense_s) points for the
    record; nothing reads them back.
    """

    content_key: str
    backend_crossover: float = DEFAULT_ROUTE_DENSITY
    hook_crossovers: dict = field(default_factory=dict)  # "layer:kind" ->
    coo_ratio: float = DEFAULT_COO_RATIO
    dispatch_cost_s: float | None = None
    probe_images: int = 0
    densities: tuple = ()
    probes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "content_key": self.content_key,
            "backend_crossover": self.backend_crossover,
            "hook_crossovers": dict(self.hook_crossovers),
            "coo_ratio": self.coo_ratio,
            "dispatch_cost_s": self.dispatch_cost_s,
            "probe_images": self.probe_images,
            "densities": list(self.densities),
            "probes": self.probes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationTable":
        """Load a stored table; keys no longer measured (an older
        table's popcount crossover) are ignored."""
        return cls(
            content_key=payload["content_key"],
            backend_crossover=float(payload["backend_crossover"]),
            hook_crossovers={k: float(v) for k, v in
                             payload.get("hook_crossovers", {}).items()},
            coo_ratio=float(payload["coo_ratio"]),
            dispatch_cost_s=(None if payload.get("dispatch_cost_s") is None
                             else float(payload["dispatch_cost_s"])),
            probe_images=int(payload.get("probe_images", 0)),
            densities=tuple(payload.get("densities", ())),
            probes=payload.get("probes", {}),
        )


@dataclass(frozen=True)
class EngineThresholds:
    """What an engine instance actually consults — table or defaults."""

    dense_fallback: float = DEFAULT_DENSE_FALLBACK
    route_density: float = DEFAULT_ROUTE_DENSITY
    by_layer: dict = field(default_factory=dict)  # "layer:kind" -> density
    calibrated: bool = False

    def for_layer(self, name: str, kind: str) -> float:
        return float(self.by_layer.get(f"{name}:{kind}",
                                       self.dense_fallback))


_LOCK = threading.Lock()
_TABLES: dict[str, CalibrationTable] = {}
_MISSING: set[str] = set()        # negative cache of store lookups


def calibration_store_key(key: str) -> str:
    """Artifact-store key for one deployment's table."""
    return f"calibration_{key}"


def install_table(table: CalibrationTable) -> None:
    """Register a table process-wide and wire it into the hot paths.

    Engines constructed afterwards for the table's ``content_key`` pick
    up its thresholds, and engines already sitting in the warm cache
    for that key are refreshed in place (via ``apply_thresholds``) — so
    ``repro calibrate`` reaches a long-running server without a
    redeploy.  The codec ratio is process-global, so the most recently
    installed table wins — ``REPRO_COO_RATIO`` pins it regardless.
    """
    with _LOCK:
        _TABLES[table.content_key] = table
        _MISSING.discard(table.content_key)
    _refresh_warm_engines(table)
    try:
        from repro.runtime import codec
    except Exception:                      # codec layer optional here
        return
    codec.set_coo_ratio(table.coo_ratio)


def _refresh_warm_engines(table: CalibrationTable) -> None:
    """Push a table's thresholds into already-cached warm engines."""
    from repro.core.engine import cache as engine_cache

    with engine_cache._LOCK:
        matching = [engine for key, engine
                    in engine_cache._ENGINES.items()
                    if key.split(":", 1)[-1] == table.content_key]
    if not matching:
        return
    thresholds = _table_thresholds(table)
    for engine in matching:
        apply = getattr(engine, "apply_thresholds", None)
        if apply is not None:
            apply(thresholds)


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


def thresholds_for(compiled, calibration: LatencyCalibration = DEFAULT_LATENCY,
                   ) -> EngineThresholds:
    """The thresholds an engine for ``compiled`` should run with.

    Looks the deployment's table up by the warm cache's three-part
    ``content_key(network, config, calibration)`` — the exact key
    :func:`~repro.core.engine.cache.warm_engine` uses — and falls back
    to the historical constants when none exists.
    """
    key = content_key(compiled.network, compiled.config, calibration)
    table = lookup_table(key)
    if table is None:
        return EngineThresholds()
    return _table_thresholds(table)


def _table_thresholds(table: CalibrationTable) -> EngineThresholds:
    return EngineThresholds(
        dense_fallback=DEFAULT_DENSE_FALLBACK,
        route_density=table.backend_crossover,
        by_layer=dict(table.hook_crossovers),
        calibrated=True,
    )


# ----------------------------------------------------------------------
# Probe inputs and crossover fitting
# ----------------------------------------------------------------------
def event_silent_frac(density: float) -> float:
    """Fully-silent frame fraction an event stream at ``density`` carries.

    Address-event sensors emit nothing between events, so the sparser
    the stream the more frames are entirely empty: three quarters of
    the frames at the sparsest probes, tapering to none by 25% density.
    Probes and benches share this prior so the calibrated crossovers
    describe the workloads they are later asked to route.
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
    realized density is ``count_nonzero / size`` — the same metric the
    runtime gates and the sparse engine's batch router measure.
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
    """Density where the dense path starts winning.

    ``points`` are ``(density, sparse_s, dense_s)``.  The fit picks the
    threshold that minimizes total routing regret over the probe set:
    every candidate boundary (below the first probe, between each
    consecutive pair, and 1.0) is scored by the wall clock a router
    using it would save versus the engine it routes away from, and the
    best-scoring boundary wins.  A single noisy probe therefore only
    shifts the fit if its margin outweighs everything the rest of the
    probes agree on — unlike a walk-to-first-crossing, which one bad
    point at the sparse end can pin to ~0.  All-sparse-wins fits 1.0
    (never fall back); dense-wins-everywhere fits below the first probe.
    """
    points = sorted(points)
    if not points:
        return DEFAULT_DENSE_FALLBACK
    candidates = [points[0][0] / 2.0]
    candidates += [(lo[0] + hi[0]) / 2.0
                   for lo, hi in zip(points, points[1:])]
    candidates.append(1.0)

    def saved(threshold: float) -> float:
        return sum((dense_s - sparse_s) if density <= threshold
                   else (sparse_s - dense_s)
                   for density, sparse_s, dense_s in points)

    # Ties break toward the higher threshold (prefer the sparse path
    # when the probes cannot tell the difference — it is the one whose
    # win depends on the workload the probes were drawn from).
    return float(max(candidates, key=lambda t: (saved(t), t)))


class _CaptureEngine(VectorizedEngine):
    """Vectorized run that records every hook's real inputs.

    One pass per probe density yields, for each layer, the exact tensor
    the sparse engine's hook would see — so both strategies are timed on
    identical inputs, layer by layer.
    """

    name = "capture-probe"                 # never registered

    def __init__(self, compiled, calibration) -> None:
        super().__init__(compiled, calibration)
        self.records: list[tuple[str, object, np.ndarray]] = []

    def _conv_acc(self, program, x):
        self.records.append(("conv", program, x))
        return super()._conv_acc(program, x)

    def _linear_acc(self, program, x):
        self.records.append(("linear", program, x))
        return super()._linear_acc(program, x)


def _forced_sparse(compiled, calibration):
    """A SparseEngine that never falls back (crossovers pinned to 1.0)."""
    from repro.core.engine.sparse import SparseEngine

    engine = SparseEngine(compiled, calibration)
    engine.apply_thresholds(EngineThresholds(
        dense_fallback=1.0, route_density=1.0, by_layer={}))
    return engine


def _conv_row_density(spec, x: np.ndarray) -> float | None:
    """The runtime gate's metric: im2col patch-row activity of ``x``."""
    live = x.reshape(x.shape[0], -1).any(axis=1)
    if not live.any():
        return None
    xs = x if live.all() else x[live]
    cols = F.im2col(xs.astype(np.float64), spec.kernel_size,
                    spec.stride, spec.padding)
    return float(cols.reshape(-1, cols.shape[-1]).any(axis=1).mean())


def _linear_tap_density(x: np.ndarray) -> float | None:
    live = x.any(axis=1)
    if not live.any():
        return None
    xs = x if live.all() else x[live]
    return float(xs.any(axis=0).mean())


def _probe_hooks(compiled, calibration, batches: dict, rounds: int,
                 ) -> tuple[dict, dict]:
    """Per-layer crossovers from timed hook probes."""
    dense = VectorizedEngine(compiled, calibration)
    forced = _forced_sparse(compiled, calibration)
    layer_points: dict[str, list] = {}
    for images in batches.values():
        capture = _CaptureEngine(compiled, calibration)
        capture.run_batch(images)
        for kind, program, x in capture.records:
            if kind == "conv":
                metric = _conv_row_density(program.spec, x)
                sparse_fn = forced._conv_acc
                dense_fn = dense._conv_acc
            else:
                metric = _linear_tap_density(x)
                sparse_fn = forced._linear_acc
                dense_fn = dense._linear_acc
            if metric is None:
                continue
            label = f"{program.name}:{kind}"
            layer_points.setdefault(label, []).append((
                metric,
                _best_time(lambda: sparse_fn(program, x), rounds),
                _best_time(lambda: dense_fn(program, x), rounds)))
    hook_crossovers = {label: round(_crossover(points), 4)
                       for label, points in layer_points.items()}
    raw = {"hooks": {label: [[round(d, 4), s, t] for d, s, t in points]
                     for label, points in layer_points.items()}}
    return hook_crossovers, raw


def _probe_backends(compiled, calibration, batches: dict, rounds: int,
                    hook_crossovers: dict) -> tuple[float, list]:
    """End-to-end crossover: calibrated sparse hooks vs dense, per density.

    The sparse engine is timed with batch routing off (``route_density``
    1.0): routing is what this probe calibrates, and left on it would
    time dense probes on the vectorized engine against itself.
    """
    from repro.core.engine.sparse import SparseEngine

    dense = VectorizedEngine(compiled, calibration)
    sparse = SparseEngine(compiled, calibration)
    sparse.apply_thresholds(EngineThresholds(
        route_density=1.0, by_layer=dict(hook_crossovers),
        calibrated=True))
    points = []
    for images in batches.values():
        density = float(np.count_nonzero(images) / images.size)
        # Full-batch warm-up: the first full-size run pays one-off
        # allocation and code-path costs that min-of-rounds must not
        # attribute to whichever engine ran first.
        sparse.run_batch(images)
        dense.run_batch(images)
        # Interleave the timing rounds so clock drift (thermal
        # throttle, a neighbour's cache pressure) hits both engines
        # alike, and alternate the order so neither always inherits
        # the other's cache state.  Each round is a *paired* sample —
        # both engines timed back to back — and the point's verdict is
        # the median of the per-round ratios: min-of-rounds compares
        # each engine's luckiest moment, which near the crossover flips
        # the winner whenever one engine catches a quiet slice of a
        # noisy host, and a flipped point moves the routing threshold.
        samples = {"sparse": [], "dense": []}
        pair = [("sparse", sparse), ("dense", dense)]
        for round_index in range(max(rounds, 1)):
            ordered = pair if round_index % 2 == 0 else pair[::-1]
            for label, engine in ordered:
                samples[label].append(_best_time(
                    lambda e=engine: e.run_batch(images), 1))
        ratio = float(np.median([d / s for s, d in
                                 zip(samples["sparse"],
                                     samples["dense"])]))
        sparse_s = float(np.median(samples["sparse"]))
        # Report the dense time consistently with the paired verdict:
        # the medians of the two series can disagree with the median
        # ratio on a drifting clock, and _crossover must see the same
        # winner the pairing saw.
        points.append((density, sparse_s, sparse_s * ratio))
    return _crossover(points), [[round(d, 4), s, t] for d, s, t in points]


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
    the table is installed process-wide, so engines constructed next for
    this deployment run calibrated.  ``measure_dispatch`` additionally
    times a one-lane process round trip (forks a worker; a second or
    two) for the sweep driver's saturation-aware shard sizing.
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
    compiled = warm_compile(network, config)
    batches = {d: probe_batch(network.input_shape, d, batch, rng)
               for d in densities}

    hook_crossovers, raw = _probe_hooks(
        compiled, calibration, batches, rounds)
    backend_crossover, backend_points = _probe_backends(
        compiled, calibration, batches, rounds, hook_crossovers)
    coo_ratio, codec_points = _probe_codec(batches, rounds)
    dispatch = (measure_dispatch_cost(network, config, calibration)
                if measure_dispatch else None)

    table = CalibrationTable(
        content_key=key,
        backend_crossover=round(backend_crossover, 4),
        hook_crossovers=hook_crossovers,
        coo_ratio=round(coo_ratio, 4),
        dispatch_cost_s=dispatch,
        probe_images=batch,
        densities=tuple(round(float(np.count_nonzero(b) / b.size), 4)
                        for b in batches.values()),
        probes={**raw, "backend": backend_points, "codec": codec_points},
    )
    store.save_result(skey, table.to_dict())
    install_table(table)
    return table, False
