"""Sweep work lists: tasks, shards and merged outcomes.

A *task* is one (network, accelerator config, dataset, backend) cell of a
sweep — a Table II unit-count point, an encoding-ablation T point, or a
whole test set to score.  The driver shards each task's image range into
:class:`WorkUnit` slices, fans the units out over worker processes, and
merges the per-shard results back into one :class:`TaskOutcome` per task.

Everything that crosses a process boundary here is plain picklable state:
frozen dataclasses of numpy arrays (``QuantizedNetwork``,
``AcceleratorConfig``, ``LatencyCalibration``) and per-layer integer
tables (:class:`~repro.core.engine.trace.TraceMerge`).  Merging is
deterministic by construction — predictions concatenate in shard order
and trace counters are commutative integer sums — so any worker count
and any shard size reproduce the single-process result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.config import AcceleratorConfig
from repro.core.engine.trace import TraceMerge
from repro.errors import ConfigurationError, ShapeError
from repro.snn.spec import QuantizedNetwork

__all__ = ["ShardResult", "SweepTask", "TaskOutcome", "WorkUnit",
           "shard_tasks", "sweep_store_key"]


def sweep_store_key(task_key: str, backend: str) -> str:
    """Persistent-store key for one sweep cell.

    The single definition of the format — the driver persists under it
    and callers short-circuit on it; including the engine name is the
    contract that keeps results computed under different backends apart.
    """
    return f"sweep_{task_key}_{backend}"


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep: a deployment plus the images it must score.

    ``key`` identifies the cell in outcomes and in the persistent result
    store; it should name everything that determines the result (model,
    T, config, dataset) — the driver appends the backend name itself so
    results computed under different engines can never be confused.
    """

    key: str
    network: QuantizedNetwork
    config: AcceleratorConfig
    images: np.ndarray            # (N, C, H, W) floats in [0, 1]
    labels: np.ndarray            # (N,) int class labels
    backend: str = "vectorized"
    calibration: LatencyCalibration = DEFAULT_LATENCY

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise ShapeError(
                f"task {self.key!r}: images must be (N, C, H, W), got "
                f"shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ShapeError(
                f"task {self.key!r}: {self.images.shape[0]} images but "
                f"labels shaped {self.labels.shape}")
        if len(self.images) == 0:
            raise ConfigurationError(
                f"task {self.key!r} has no images to run")

    @property
    def num_images(self) -> int:
        return int(self.images.shape[0])

    @classmethod
    def from_dataset(cls, key: str, network: QuantizedNetwork,
                     config: AcceleratorConfig, dataset,
                     backend: str = "vectorized",
                     calibration: LatencyCalibration = DEFAULT_LATENCY,
                     ) -> "SweepTask":
        """Build a task covering a whole :class:`~repro.data.Dataset`."""
        return cls(key=key, network=network, config=config,
                   images=dataset.images, labels=dataset.labels,
                   backend=backend, calibration=calibration)


@dataclass(frozen=True)
class WorkUnit:
    """One shard of one task: the half-open image range [start, stop)."""

    task_index: int
    task_key: str
    shard_index: int
    start: int
    stop: int

    @property
    def num_images(self) -> int:
        return self.stop - self.start


@dataclass
class ShardResult:
    """What a worker sends back for one completed :class:`WorkUnit`."""

    task_index: int
    task_key: str
    shard_index: int
    start: int
    stop: int
    predictions: np.ndarray       # (stop - start,) int64 argmax classes
    correct: int
    trace: TraceMerge
    elapsed_s: float
    worker_pid: int

    @property
    def num_images(self) -> int:
        return self.stop - self.start


@dataclass
class TaskOutcome:
    """A task's merged result: predictions in image order plus aggregates."""

    key: str
    backend: str
    predictions: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    correct: int = 0
    num_images: int = 0
    trace: TraceMerge = field(default_factory=TraceMerge)
    elapsed_s: float = 0.0        # summed worker wall time (CPU-seconds)
    num_shards: int = 0
    cached: bool = False          # served from the persistent store

    @property
    def accuracy(self) -> float:
        return self.correct / self.num_images if self.num_images else 0.0

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "backend": self.backend,
            "predictions": self.predictions.tolist(),
            "correct": self.correct,
            "num_images": self.num_images,
            "trace": self.trace.to_dict(),
            "elapsed_s": self.elapsed_s,
            "num_shards": self.num_shards,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskOutcome":
        return cls(
            key=payload["key"],
            backend=payload["backend"],
            predictions=np.asarray(payload["predictions"], dtype=np.int64),
            correct=int(payload["correct"]),
            num_images=int(payload["num_images"]),
            trace=TraceMerge.from_dict(payload["trace"]),
            elapsed_s=float(payload["elapsed_s"]),
            num_shards=int(payload["num_shards"]),
            cached=True,
        )


def shard_tasks(tasks, shard_size) -> list[WorkUnit]:
    """Slice every task's image range into work units.

    ``shard_size`` is one images-per-unit count applied to every task, or
    a sequence of per-task counts (the saturating driver sizes shards
    from measured per-image and per-batch cost, so heterogeneous tasks
    get different sizes).  Units are emitted task-major in ascending image order; the
    merge re-sorts by ``(task_index, start)`` anyway, so neither
    scheduling order nor the shard sizes affect results.
    """
    tasks = list(tasks)
    if isinstance(shard_size, int):
        sizes = [shard_size] * len(tasks)
    else:
        sizes = [int(s) for s in shard_size]
        if len(sizes) != len(tasks):
            raise ConfigurationError(
                f"{len(tasks)} tasks but {len(sizes)} shard sizes")
    if any(size < 1 for size in sizes):
        raise ConfigurationError(
            f"shard_size must be >= 1, got {sizes}")
    units: list[WorkUnit] = []
    for task_index, (task, size) in enumerate(zip(tasks, sizes)):
        for shard_index, start in enumerate(
                range(0, task.num_images, size)):
            stop = min(start + size, task.num_images)
            units.append(WorkUnit(
                task_index=task_index, task_key=task.key,
                shard_index=shard_index, start=start, stop=stop))
    return units
