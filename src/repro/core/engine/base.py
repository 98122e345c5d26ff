"""The execution-engine abstraction: interchangeable functional backends.

An :class:`ExecutionEngine` executes a compiled model on batches of
images.  ``run_batch`` returns logits plus per-image
:class:`ExecutionTrace` records; ``run_merged`` — the call the runtime
makes — returns logits plus one :class:`BatchTrace` for the whole batch,
which engines with batch-native accounting build without any per-image
objects.  Two backends ship with the repo —

* ``reference`` — the shift-register/adder-array hardware model, bit- and
  cycle-faithful to the paper's microarchitecture (slow, per-image);
* ``vectorized`` — whole-batch numpy tensor ops with the identical
  integer semantics and trace accounting (fast, for sweeps and serving;
  ``sparse`` is another name for it).

Backends register themselves under a short name and any aliases;
:func:`create_engine` resolves a name (or an :class:`ExecutionEngine`
subclass) to an instance bound to a compiled model.  The equivalence suite pins both backends to
bit-identical logits and identical traces, so callers may switch freely.
"""

from __future__ import annotations

import abc
import inspect

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.compiler import CompiledModel
from repro.core.engine.trace import BatchTrace, ExecutionTrace
from repro.errors import ConfigurationError, ShapeError

__all__ = [
    "ExecutionEngine",
    "available_backends",
    "create_engine",
    "register_engine",
    "resolve_backend",
]


class ExecutionEngine(abc.ABC):
    """Executes a compiled model; one instance per deployment."""

    #: Registry name of the backend (subclasses override).
    name: str = "abstract"
    #: Further names that select this same backend.
    aliases: tuple[str, ...] = ()

    def __init__(
        self,
        compiled: CompiledModel,
        calibration: LatencyCalibration = DEFAULT_LATENCY,
    ) -> None:
        self.compiled = compiled
        self.calibration = calibration

    @abc.abstractmethod
    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, list[ExecutionTrace]]:
        """Infer a ``(N, C, H, W)`` batch of images in ``[0, 1]``.

        Returns ``(logits, traces)`` where ``logits`` is the integer
        logit-accumulator tensor ``(N, num_classes)`` and ``traces`` holds
        one :class:`ExecutionTrace` per image.
        """

    def run_merged(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, BatchTrace]:
        """Infer a batch; returns logits and one :class:`BatchTrace`.

        This is the shape runtime workers ship across process and host
        boundaries: integer arrays whose merge equals the fold of the
        per-image traces, so any re-grouping downstream stays
        bit-identical.  Backends customize :meth:`_run_batch_trace`, not
        this method, so every backend enters through this one
        definition.
        """
        return self._run_batch_trace(images)

    def _run_batch_trace(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, BatchTrace]:
        """The work behind :meth:`run_merged`.  The default packs
        ``run_batch``'s per-image traces (and raises
        :class:`~repro.errors.SimulationError` if their data-independent
        charges disagree); batch-native engines override it."""
        logits, traces = self.run_batch(images)
        return logits, BatchTrace.from_traces(traces)

    def run_image(self, image: np.ndarray) -> tuple[np.ndarray,
                                                    ExecutionTrace]:
        """Infer one ``(C, H, W)`` image; returns (logits, trace)."""
        logits, traces = self.run_batch(np.asarray(image)[np.newaxis])
        return logits[0], traces[0]

    def _check_batch(self, images: np.ndarray) -> np.ndarray:
        """Validate a batch against the deployed network's input shape."""
        images = np.asarray(images)
        expected = self.compiled.network.input_shape
        if images.ndim != 4 or images.shape[1:] != expected:
            raise ShapeError(
                f"expected a batch of images shaped (N, "
                f"{', '.join(map(str, expected))}), got {images.shape}"
            )
        if images.shape[0] == 0:
            raise ShapeError("batch of images is empty")
        return images


_ENGINES: dict[str, type[ExecutionEngine]] = {}


def register_engine(cls: type[ExecutionEngine]) -> type[ExecutionEngine]:
    """Class decorator: make a backend selectable by its ``name`` and
    its ``aliases``."""
    if not cls.name or cls.name == "abstract":
        raise ConfigurationError(
            f"engine {cls.__name__} must define a registry name")
    for name in (cls.name,) + tuple(cls.aliases):
        _ENGINES[name] = cls
    return cls


def available_backends() -> tuple[str, ...]:
    """Names of all registered execution backends."""
    return tuple(sorted(_ENGINES))


def resolve_backend(
    backend: str | type[ExecutionEngine],
) -> type[ExecutionEngine]:
    """Map a backend name (or engine subclass) to the engine class."""
    if isinstance(backend, type) and issubclass(backend, ExecutionEngine):
        if inspect.isabstract(backend) or backend is ExecutionEngine:
            raise ConfigurationError(
                f"{backend.__name__} is abstract; pass a concrete engine "
                f"or a name from: {', '.join(available_backends())}"
            )
        return backend
    if isinstance(backend, str):
        try:
            return _ENGINES[backend]
        except KeyError:
            raise ConfigurationError(
                f"unknown execution backend {backend!r}; available: "
                f"{', '.join(available_backends())}"
            ) from None
    raise ConfigurationError(
        f"backend must be a name or an ExecutionEngine subclass, "
        f"got {backend!r}"
    )


def create_engine(
    backend: str | type[ExecutionEngine],
    compiled: CompiledModel,
    calibration: LatencyCalibration = DEFAULT_LATENCY,
) -> ExecutionEngine:
    """Instantiate a backend for a compiled model."""
    return resolve_backend(backend)(compiled, calibration)
