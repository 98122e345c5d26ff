"""Execution traces shared by every execution engine.

The same accounting comes in three shapes:

* :class:`ExecutionTrace` — one image's ordered per-layer records
  (:class:`LayerTrace`).  The ``reference`` engine simulates these
  natively, and every backend's ``run_batch`` returns one per image, so
  the equivalence suite pins every field image by image.
* :class:`BatchTrace` — one batch in structure-of-arrays form, the
  native output of the vectorized and sparse engines and the shape the
  runtime ships between processes and hosts.  The cost model
  (:func:`~repro.core.latency.layer_charges`) charges every layer a
  closed-form number of cycles and memory traffic that does not depend
  on the data, so those charges are one ``(L, 6)`` table shared by every
  image; only the adder activity follows the spikes and is kept as an
  ``(N, L)`` matrix.
* :class:`TraceMerge` — the multi-image (and multi-process) aggregate:
  one ``(L, 7)`` table of per-layer integer sums.  Merging is exact
  integer addition, so merging shards in any order — or splitting a
  dataset into any shard sizes — yields bit-identical totals.  Energy
  is derived from the merged counters
  (``repro.core.energy.trace_energy``) rather than by summing floats,
  for the same determinism reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.latency import CHARGE_COLUMNS
from repro.core.stats import MemoryTraffic
from repro.errors import SimulationError

__all__ = ["BatchTrace", "CHARGE_COLUMNS", "ExecutionTrace", "LayerTrace",
           "MERGE_COLUMNS", "TraceMerge"]

_TRAFFIC_FIELDS = CHARGE_COLUMNS[2:]

#: Columns of :attr:`TraceMerge.table`: the charges plus adder ops.
MERGE_COLUMNS = CHARGE_COLUMNS + ("adder_ops",)


@dataclass
class LayerTrace:
    """Per-layer record of one functional inference."""

    name: str
    kind: str
    cycles: int
    dram_cycles: int
    adder_ops: int
    traffic: MemoryTraffic

    def charges(self) -> list[int]:
        """This layer's counters in :data:`CHARGE_COLUMNS` order."""
        return [self.cycles, self.dram_cycles,
                *(getattr(self.traffic, name) for name in _TRAFFIC_FIELDS)]


@dataclass
class ExecutionTrace:
    """Aggregate record of one functional inference."""

    layers: list[LayerTrace] = field(default_factory=list)
    input_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.input_cycles + sum(
            l.cycles + l.dram_cycles for l in self.layers)

    @property
    def total_adder_ops(self) -> int:
        return sum(l.adder_ops for l in self.layers)

    def total_traffic(self) -> MemoryTraffic:
        merged = MemoryTraffic()
        for layer in self.layers:
            merged.merge(layer.traffic)
        return merged

    def layer_ids(self) -> tuple[tuple[str, str], ...]:
        return tuple((layer.name, layer.kind) for layer in self.layers)


@dataclass(eq=False)
class BatchTrace:
    """One batch's execution traces in structure-of-arrays form.

    ``layers`` holds ``(name, kind)`` per layer in program order;
    ``charges`` is the ``(L, len(CHARGE_COLUMNS))`` int64 table every
    image pays; ``adder_ops`` is the ``(N, L)`` int64 matrix of the one
    data-dependent counter.  Engines may share one read-only
    ``charges`` array between batches, so never write to it.
    """

    layers: tuple[tuple[str, str], ...]
    charges: np.ndarray
    input_cycles: int
    adder_ops: np.ndarray

    @property
    def num_images(self) -> int:
        return int(self.adder_ops.shape[0])

    @classmethod
    def from_traces(cls, traces) -> "BatchTrace":
        """Pack per-image traces; their shared charges must agree.

        A data-independent charge that differs between images means the
        engine broke the cost model's contract, so it raises
        :class:`~repro.errors.SimulationError` rather than pick one.
        """
        traces = list(traces)
        if not traces:
            raise SimulationError("cannot pack a batch trace of no images")
        first = traces[0]
        layers = first.layer_ids()
        charges = [layer.charges() for layer in first.layers]
        for index, trace in enumerate(traces[1:], start=1):
            if (trace.input_cycles != first.input_cycles
                    or trace.layer_ids() != layers
                    or [layer.charges() for layer in trace.layers]
                    != charges):
                raise SimulationError(
                    f"image {index} was charged differently from image 0 "
                    "for data-independent cycles or traffic")
        return cls(
            layers=layers,
            charges=np.array(charges, dtype=np.int64).reshape(
                len(layers), len(CHARGE_COLUMNS)),
            input_cycles=int(first.input_cycles),
            adder_ops=np.array(
                [[layer.adder_ops for layer in trace.layers]
                 for trace in traces], dtype=np.int64).reshape(
                     len(traces), len(layers)))

    def traces(self) -> list[ExecutionTrace]:
        """Expand into one :class:`ExecutionTrace` per image."""
        rows = self.charges.tolist()
        expanded = []
        for ops in self.adder_ops.tolist():
            trace = ExecutionTrace(input_cycles=self.input_cycles)
            for (name, kind), row, adds in zip(self.layers, rows, ops):
                cycles, dram_cycles, *traffic = row
                trace.layers.append(LayerTrace(
                    name=name, kind=kind, cycles=cycles,
                    dram_cycles=dram_cycles, adder_ops=adds,
                    traffic=MemoryTraffic(*traffic)))
            expanded.append(trace)
        return expanded

    def merged(self) -> "TraceMerge":
        """The whole batch as one aggregate."""
        n = self.num_images
        return TraceMerge(
            num_images=n, input_cycles=n * self.input_cycles,
            layers=self.layers,
            table=np.column_stack((self.charges * n,
                                   self.adder_ops.sum(axis=0))))

    def image(self, index: int) -> "TraceMerge":
        """One image's single-image aggregate (a request's share)."""
        table = np.empty((len(self.layers), len(MERGE_COLUMNS)),
                         dtype=np.int64)
        table[:, :-1] = self.charges
        table[:, -1] = self.adder_ops[index]
        return TraceMerge(num_images=1, input_cycles=self.input_cycles,
                          layers=self.layers, table=table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BatchTrace):
            return NotImplemented
        return (self.layers == other.layers
                and self.input_cycles == other.input_cycles
                and np.array_equal(self.charges, other.charges)
                and np.array_equal(self.adder_ops, other.adder_ops))

    __hash__ = None


def _empty_table() -> np.ndarray:
    return np.zeros((0, len(MERGE_COLUMNS)), dtype=np.int64)


#: The single row an entry written before per-layer tables loads into.
_LEGACY_LAYER = ("*", "total")


@dataclass(eq=False)
class TraceMerge:
    """Order-independent aggregate of many images' execution traces.

    ``table`` holds one row per layer (``layers`` gives each row's
    ``(name, kind)``, in program order) and one column per counter in
    :data:`MERGE_COLUMNS`.  Every entry is an exact integer sum, so
    ``merge`` is associative and commutative: sharded runs merge to the
    same table as a single process, whatever the shard sizes or
    completion order.  Totals, averages and energy are derived views.
    """

    num_images: int = 0
    input_cycles: int = 0
    layers: tuple[tuple[str, str], ...] = ()
    table: np.ndarray = field(default_factory=_empty_table)

    @classmethod
    def from_traces(cls, traces) -> "TraceMerge":
        merged = cls()
        for trace in traces:
            merged.merge(BatchTrace.from_traces([trace]).merged())
        return merged

    def merge(self, other: "TraceMerge") -> None:
        """Fold another aggregate (e.g. a shard's) into this one.

        Both sides must describe the same layer program; an empty
        aggregate merges with anything.
        """
        if not other.num_images:
            return
        if not self.num_images:
            self.layers = other.layers
            self.table = other.table.copy()
        elif other.layers != self.layers:
            raise SimulationError(
                "cannot merge traces of different layer programs: "
                f"{[name for name, _ in self.layers]} vs "
                f"{[name for name, _ in other.layers]}")
        else:
            self.table = self.table + other.table
        self.num_images += other.num_images
        self.input_cycles += other.input_cycles

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceMerge):
            return NotImplemented
        return (self.num_images == other.num_images
                and self.input_cycles == other.input_cycles
                and self.layers == other.layers
                and np.array_equal(self.table, other.table))

    __hash__ = None

    # ------------------------------------------------------------------
    # Derived views (the interface trace_energy and reports consume)
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """One counter per layer, e.g. ``column("adder_ops")``."""
        return self.table[:, MERGE_COLUMNS.index(name)]

    @property
    def total_cycles(self) -> int:
        return self.input_cycles + int(self.table[:, :2].sum())

    @property
    def total_adder_ops(self) -> int:
        return int(self.table[:, -1].sum())

    def total_traffic(self) -> MemoryTraffic:
        return MemoryTraffic(*self.table[:, 2:-1].sum(axis=0).tolist())

    def cycles_per_image(self) -> float:
        return self.total_cycles / self.num_images if self.num_images else 0.0

    # ------------------------------------------------------------------
    # JSON persistence (the sweep result store)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"num_images": self.num_images,
                "input_cycles": self.input_cycles,
                "layers": [list(layer) for layer in self.layers],
                "table": self.table.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceMerge":
        """Load :meth:`to_dict` output, or an entry from before per-layer
        tables (scalar totals), which loads as one all-layer row with
        the same totals."""
        if "table" not in payload:
            traffic = payload["traffic"]
            row = [payload["compute_cycles"], payload["dram_cycles"],
                   *(traffic[name] for name in _TRAFFIC_FIELDS),
                   payload["adder_ops"]]
            return cls(num_images=int(payload["num_images"]),
                       input_cycles=int(payload["input_cycles"]),
                       layers=(_LEGACY_LAYER,),
                       table=np.array([row], dtype=np.int64))
        layers = tuple((str(name), str(kind))
                       for name, kind in payload["layers"])
        return cls(num_images=int(payload["num_images"]),
                   input_cycles=int(payload["input_cycles"]),
                   layers=layers,
                   table=np.array(payload["table"], dtype=np.int64).reshape(
                       len(layers), len(MERGE_COLUMNS)))
