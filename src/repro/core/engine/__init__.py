"""Pluggable execution engines for the functional accelerator model.

Importing this package registers the built-in backends:

* ``reference`` — :class:`~repro.core.engine.reference.ReferenceEngine`,
  the shift-register/adder-array hardware model (slow, per-image);
* ``vectorized`` — :class:`~repro.core.engine.vectorized.VectorizedEngine`,
  batched numpy tensor ops with identical integer semantics and traces;
  each layer's kernel runs only on the images with a spike it reads, so
  silent images (event frames between events, activity that died out
  mid-stack) cost no arithmetic.  ``sparse`` is an alias: both names
  select this one engine and share one warm instance.

Select one with ``Accelerator(config, backend="vectorized")`` or
``create_engine("vectorized", compiled)``.  No engine needs
calibrating: which images a layer skips is decided by an exact
per-image spike count, not by a measured threshold.
"""

from repro.core.engine.base import (
    ExecutionEngine,
    available_backends,
    create_engine,
    register_engine,
    resolve_backend,
)
from repro.core.engine.cache import (
    clear_engine_cache,
    engine_cache_stats,
    network_fingerprint,
    warm_compile,
    warm_engine,
)
from repro.core.engine.reference import ReferenceEngine
from repro.core.engine.trace import (BatchTrace, ExecutionTrace, LayerTrace,
                                     TraceMerge)
from repro.core.engine.vectorized import VectorizedEngine

__all__ = [
    "BatchTrace",
    "ExecutionEngine",
    "ExecutionTrace",
    "LayerTrace",
    "TraceMerge",
    "ReferenceEngine",
    "VectorizedEngine",
    "available_backends",
    "clear_engine_cache",
    "create_engine",
    "engine_cache_stats",
    "network_fingerprint",
    "register_engine",
    "resolve_backend",
    "warm_compile",
    "warm_engine",
]
