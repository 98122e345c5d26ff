"""Pluggable execution engines for the functional accelerator model.

Importing this package registers the built-in backends:

* ``reference`` — :class:`~repro.core.engine.reference.ReferenceEngine`,
  the shift-register/adder-array hardware model (slow, per-image);
* ``vectorized`` — :class:`~repro.core.engine.vectorized.VectorizedEngine`,
  batched numpy tensor ops with identical integer semantics and traces;
* ``sparse`` — :class:`~repro.core.engine.sparse.SparseEngine`,
  the vectorized semantics restricted to active spike planes: all-zero
  images/patches/taps are skipped, bits and traces unchanged; a batch
  denser than the deployment's calibrated crossover runs on the
  ``vectorized`` kernels instead (:mod:`repro.core.engine.auto`).

Select one with ``Accelerator(config, backend="vectorized")`` or
``create_engine("vectorized", compiled)``.  ``repro calibrate`` (or
:func:`~repro.core.engine.calibrate.calibrate_deployment`) measures the
sparse/dense crossovers per deployment and persists them; engines pick
installed tables up automatically at construction.
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
    EngineThresholds,
    calibrate_deployment,
    calibration_store_key,
    clear_calibration_tables,
    install_table,
    lookup_table,
    thresholds_for,
)
from repro.core.engine.reference import ReferenceEngine
from repro.core.engine.sparse import SparseEngine
from repro.core.engine.trace import (BatchTrace, ExecutionTrace, LayerTrace,
                                     TraceMerge)
from repro.core.engine.vectorized import VectorizedEngine

__all__ = [
    "BatchTrace",
    "CalibrationTable",
    "EngineThresholds",
    "ExecutionEngine",
    "ExecutionTrace",
    "LayerTrace",
    "TraceMerge",
    "ReferenceEngine",
    "SparseEngine",
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
    "thresholds_for",
    "warm_compile",
    "warm_engine",
]
