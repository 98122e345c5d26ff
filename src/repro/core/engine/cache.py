"""Warm-instance cache: compile once, reuse everywhere.

Hot paths — the inference server's engine pool, sweep workers, repeated
``SweepDriver.run`` calls in one process — used to pay
:func:`~repro.core.compiler.compile_network` (and engine construction)
per batch or per run.  Compilation is pure: its output depends only on
the quantized network, the accelerator config and the calibration, so a
content-keyed cache can hand back the *same* compiled model (and the
same engine instance) without any observable difference.  The test suite
asserts warm reuse is bit-identical — same logits, same traces — to a
cold compile.

Keys are content fingerprints (SHA-256 over every layer's weight arrays
plus the frozen config/calibration fields), not object identities, so
two structurally identical deployments share one compiled model even
when the network objects differ.  Engines hold no per-request mutable
state (``run_batch`` is a pure function of its inputs), which is what
makes sharing instances safe; the cache is process-local and guarded by
a lock so threaded servers can warm it concurrently.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from dataclasses import fields, is_dataclass

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.compiler import CompiledModel, compile_network
from repro.core.config import AcceleratorConfig
from repro.core.engine.base import ExecutionEngine, create_engine, resolve_backend
from repro.snn.spec import QuantizedNetwork

__all__ = [
    "clear_engine_cache",
    "content_key",
    "engine_cache_stats",
    "network_fingerprint",
    "warm_compile",
    "warm_engine",
]

_LOCK = threading.Lock()
_COMPILED: dict[str, CompiledModel] = {}
_ENGINES: dict[str, ExecutionEngine] = {}
_STATS = {"compile_hits": 0, "compile_misses": 0,
          "engine_hits": 0, "engine_misses": 0}
#: id(network) -> (weakref to it, sha256 state after feeding it).
_NETWORK_DIGESTS: dict[int, tuple] = {}


def _feed(digest, value) -> None:
    """Fold one field value into a hash, structure included.

    Handles the shapes that occur in network/config/calibration specs:
    numpy arrays (dtype + shape + raw bytes), nested dataclasses, tuples
    and plain scalars.  Type tags keep e.g. ``(1, 2)`` and ``"(1, 2)"``
    from colliding.
    """
    if isinstance(value, np.ndarray):
        digest.update(b"a")
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif is_dataclass(value) and not isinstance(value, type):
        digest.update(b"d")
        digest.update(type(value).__name__.encode())
        for f in fields(value):
            digest.update(f.name.encode())
            _feed(digest, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        digest.update(b"t")
        for item in value:
            _feed(digest, item)
    else:
        digest.update(b"s")
        digest.update(repr(value).encode())


def _network_digest(network):
    """The hash state after feeding ``network``, memoized per instance.

    Every content key starts by hashing the whole network (28.5M
    weights for VGG-11), and callers such as ``SweepDriver.run`` ask for
    keys of the same network object again and again.  The state is
    kept per network *instance* and callers get a ``.copy()``.  That is
    sound because a :class:`~repro.snn.spec.QuantizedNetwork` never
    changes after construction: the dataclasses are frozen and the
    specs make their arrays read-only.  The memo entry goes away with
    the network.
    """
    ident = id(network)
    entry = _NETWORK_DIGESTS.get(ident)
    if entry is not None and entry[0]() is network:
        return entry[1].copy()
    digest = hashlib.sha256()
    _feed(digest, network)
    if not isinstance(network, QuantizedNetwork):
        return digest                    # no immutability promise: no memo
    ref = weakref.ref(network)
    _NETWORK_DIGESTS[ident] = (ref, digest.copy())
    weakref.finalize(network, _forget_digest, ident, ref)
    return digest


def _forget_digest(ident: int, ref) -> None:
    # Lock-free on purpose: finalizers run from the garbage collector,
    # possibly while this thread holds _LOCK.
    entry = _NETWORK_DIGESTS.get(ident)
    if entry is not None and entry[0] is ref:
        _NETWORK_DIGESTS.pop(ident, None)


def network_fingerprint(network) -> str:
    """Content hash of a :class:`~repro.snn.spec.QuantizedNetwork`."""
    return _network_digest(network).hexdigest()


def content_key(network, config: AcceleratorConfig,
                calibration: LatencyCalibration | None = None) -> str:
    """The cache's content fingerprint over a deployment's inputs.

    Public because the deployment registry keys named deployments by the
    same fingerprint the warm cache uses — one definition, so "same
    fingerprint" and "same warm engine" can never disagree.  The
    network's share of the hash is memoized per network instance, so a
    repeat key costs only the config and calibration fields.
    """
    digest = _network_digest(network)
    _feed(digest, config)
    if calibration is not None:
        _feed(digest, calibration)
    return digest.hexdigest()


def warm_compile(
    network,
    config: AcceleratorConfig,
) -> CompiledModel:
    """Compile ``network`` for ``config``, served from the cache on reuse.

    Compilation depends only on the network and the config — not on any
    latency calibration — so deployments that differ only in
    calibration share one compiled model.  The returned
    :class:`CompiledModel` may be shared between callers; engines never
    mutate it.
    """
    register_cache_sampler()
    key = content_key(network, config)
    with _LOCK:
        compiled = _COMPILED.get(key)
        if compiled is not None:
            _STATS["compile_hits"] += 1
            return compiled
        _STATS["compile_misses"] += 1
    compiled = compile_network(network, config)
    with _LOCK:
        return _COMPILED.setdefault(key, compiled)


def warm_engine(
    network,
    config: AcceleratorConfig,
    backend: str | type[ExecutionEngine] = "vectorized",
    calibration: LatencyCalibration = DEFAULT_LATENCY,
    key: str | None = None,
) -> ExecutionEngine:
    """A ready-to-run engine for a deployment, cached across callers.

    Repeated calls with content-equal arguments return the *same* engine
    instance, skipping compilation and construction entirely — the hot
    path the serving and sweep layers sit on.  ``run_batch`` is stateless
    per call, so one instance may serve many callers (and threads).

    ``key`` is the cache key when the caller already holds it —
    ``f"{backend}:{content_key(network, config, calibration)}"``, which
    is :attr:`~repro.runtime.work.Deployment.fingerprint` — so a hit
    costs a dict lookup instead of a hash over every weight.
    """
    if key is None:
        name = resolve_backend(backend).name
        key = f"{name}:{content_key(network, config, calibration)}"
    with _LOCK:
        engine = _ENGINES.get(key)
        if engine is not None:
            _STATS["engine_hits"] += 1
            return engine
        _STATS["engine_misses"] += 1
    compiled = warm_compile(network, config)
    engine = create_engine(backend, compiled, calibration)
    with _LOCK:
        return _ENGINES.setdefault(key, engine)


def engine_cache_stats() -> dict:
    """Hit/miss counters plus entry counts (diagnostics and tests)."""
    with _LOCK:
        return dict(_STATS, compiled_entries=len(_COMPILED),
                    engine_entries=len(_ENGINES))


def _sample_cache_gauges() -> None:
    """Scrape-time sampler: mirror the cache stats into the registry."""
    from repro.telemetry import get_registry
    gauge = get_registry().gauge(
        "repro_engine_cache",
        "Warm compile/engine cache counters, by stat",
        labelnames=("stat",))
    for stat, value in engine_cache_stats().items():
        gauge.labels(stat=stat).set(value)


def register_cache_sampler() -> None:
    """Attach the cache sampler to the process-wide registry (idempotent
    — ``register_sampler`` dedups by function identity)."""
    from repro.telemetry import get_registry
    get_registry().register_sampler(_sample_cache_gauges)


def clear_engine_cache() -> None:
    """Drop every cached compile and engine (tests, memory pressure)."""
    with _LOCK:
        _COMPILED.clear()
        _ENGINES.clear()
        for counter in _STATS:
            _STATS[counter] = 0
