"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class EncodingError(ReproError):
    """Raised when a spike-train encoding or decoding request is invalid."""


class QuantizationError(ReproError):
    """Raised for invalid quantization parameters or unfitted quantizers."""


class ShapeError(ReproError):
    """Raised when tensor shapes are incompatible with an operation."""


class ConversionError(ReproError):
    """Raised when an ANN cannot be converted to an SNN."""


class CompilationError(ReproError):
    """Raised when a model cannot be mapped onto the accelerator."""


class ConfigurationError(ReproError):
    """Raised for invalid accelerator or unit configurations."""


class CapacityError(ReproError):
    """Raised when a model exceeds a hardware memory capacity constraint."""


class SimulationError(ReproError):
    """Raised when the functional hardware simulation reaches a bad state."""


class ServeError(ReproError):
    """Raised for invalid inference-serving requests or server states."""


class BackpressureError(ServeError):
    """Raised when a non-waiting submit finds the request queue full."""


class RequestTimeoutError(ServeError):
    """Raised when a request's queue-wait deadline passes before dispatch."""


class DeploymentError(ReproError):
    """Raised when work is routed to a deployment that does not exist.

    A :class:`~repro.runtime.WorkItem` names its deployment by table
    index (and serving requests by registry name); an index outside the
    registered table — or an unknown name — is a caller bug, surfaced as
    this typed error on every executor (thread, process, remote TCP) so
    multi-model routing mistakes never degrade to a bare ``IndexError``.
    """


class CodecError(ReproError):
    """Raised when a wire frame fails structural validation.

    The RBF1 frame codec validates the magic, the declared lengths and
    every array descriptor (whitelisted dtype, shape/byte accounting)
    *before* allocating or copying any buffer, so a truncated header, an
    oversized length prefix or a smuggled dtype is rejected as this
    typed error instead of an allocation, an overflow or an unpickle.
    """


class FabricAuthError(ReproError):
    """Raised when a fabric message fails the shared-secret handshake.

    Servers started with a token reject unauthenticated payloads with a
    structured error carrying this type; clients resurrect it so a
    missing/wrong ``--token`` reads as an auth failure, not a crash.
    """


class ReplicaDivergenceError(ServeError):
    """Raised when replicas of one deployment disagree bit-for-bit.

    The engines are deterministic, so two replicas of the same
    fingerprint answering different logits or traces means silent
    corruption somewhere in the stack — the replicated-serving path
    runtime-asserts bit-identity across replicas and surfaces any
    divergence as this error instead of picking a winner.
    """


class RolloutError(ServeError):
    """Raised when a blue/green rollout cannot be performed.

    Flipping an alias to a deployment that is not registered (or not
    yet serving) would drop requests; the rollout path refuses with
    this typed error instead.
    """


class WorkerCrashError(ReproError):
    """Raised when a runtime worker (process or remote host) dies or hangs.

    The :class:`~repro.runtime.WorkerGroup` scheduler catches this,
    evicts the worker and requeues its in-flight work on a healthy one;
    callers only see it when no healthy worker remains.
    """


class RemoteExecutionError(ReproError):
    """Raised when a remote worker reports a task-level failure.

    The worker itself is healthy (the connection answered); the work item
    it was given could not be executed — a shape mismatch, an unknown
    backend name, a deployment that was never registered.
    """
