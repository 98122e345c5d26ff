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
``create_engine("vectorized", compiled)``.  ``repro calibrate`` (or
:func:`~repro.core.engine.calibrate.calibrate_deployment`) measures the
codec's COO byte ratio and the fabric's dispatch cost per deployment
and persists them; neither can change an output bit.
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
from repro.core.engine.calibrate import (
    CalibrationTable,
    calibrate_deployment,
    calibration_store_key,
    clear_calibration_tables,
    install_table,
    lookup_table,
)
from repro.core.engine.reference import ReferenceEngine
from repro.core.engine.trace import (BatchTrace, ExecutionTrace, LayerTrace,
                                     TraceMerge)
from repro.core.engine.vectorized import VectorizedEngine

__all__ = [
    "BatchTrace",
    "CalibrationTable",
    "ExecutionEngine",
    "ExecutionTrace",
    "LayerTrace",
    "TraceMerge",
    "ReferenceEngine",
    "VectorizedEngine",
    "available_backends",
    "calibrate_deployment",
    "calibration_store_key",
    "clear_calibration_tables",
    "clear_engine_cache",
    "create_engine",
    "engine_cache_stats",
    "install_table",
    "lookup_table",
    "network_fingerprint",
    "register_engine",
    "resolve_backend",
    "warm_compile",
    "warm_engine",
]
