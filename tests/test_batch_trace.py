"""Batch traces: per-layer integer arrays as the engine's native output.

The contracts pinned here:

* the ``np.bitwise_count`` popcount equals the ``T``-step shift loop it
  replaced for every ``T`` in 1..16, elementwise and through the
  vectorized engine's ``_popcount_sum`` (whose per-image sums also pick
  the images each layer's kernel runs on), on mostly-zero tensors with
  a silent image and saturated entries;
* a :class:`TraceMerge` table's per-layer rows sum exactly to the
  per-image traces' totals, and a :class:`BatchTrace` merges (whole or
  per image) to exactly ``TraceMerge.from_traces(run_batch(...)[1])``
  on the ``reference`` and ``vectorized`` backends (``sparse`` is an
  alias of ``vectorized``);
* packing per-image traces rejects data-independent charges that
  differ between images, and merging rejects a different layer program;
* a sweep result-store entry written with the scalar ``TraceMerge``
  format still loads, with the same totals.
"""

import numpy as np
import pytest

from repro.core import AcceleratorConfig, compile_network, create_engine
from repro.core.engine import BatchTrace, TraceMerge
from repro.core.engine.trace import MERGE_COLUMNS
from repro.core.engine.vectorized import _popcount
from repro.errors import SimulationError
from repro.harness import ArtifactStore
from repro.harness.sweep import SweepDriver, SweepTask
from repro.models import performance_network

#: LeNet-5 "32x32x1 - 6C5 - P2 - 16C5 - P2 - 120C5 - 120 - 84 - 10".
LENET5 = [("conv", 6, 5, 1, 0), ("pool", 2), ("conv", 16, 5, 1, 0),
          ("pool", 2), ("conv", 120, 5, 1, 0), ("flatten",),
          ("linear", 120), ("linear", 84), ("linear", 10)]

SMALL = [("conv", 4, 3, 1, 1), ("pool", 2), ("conv", 6, 3, 2, 1),
         ("flatten",), ("linear", 12), ("linear", 5)]


def loop_popcount(values: np.ndarray, num_steps: int) -> np.ndarray:
    """The T-step shift loop the bit count replaced (the reference)."""
    v = values.astype(np.int64, copy=True)
    pop = np.zeros(values.shape, dtype=np.int64)
    for _ in range(num_steps):
        pop += v & 1
        v >>= 1
    return pop


def engines_for(layers, input_shape, num_steps, seed=3):
    net = performance_network(layers, input_shape=input_shape,
                              num_steps=num_steps, seed=seed)
    compiled = compile_network(net, AcceleratorConfig.for_network(net))
    engines = [create_engine(backend, compiled)
               for backend in ("reference", "vectorized")]
    return net, {engine.name: engine for engine in engines}


def sparse_images(rng, net, count, density=0.3):
    shape = (count,) + net.input_shape
    return rng.random(shape) * (rng.random(shape) < density)


class TestPopcount:
    @pytest.mark.parametrize("num_steps", range(1, 17))
    def test_bit_count_equals_shift_loop(self, rng, num_steps):
        top = (1 << num_steps) - 1
        values = np.concatenate([
            [0, top], rng.integers(0, top + 1, size=200)]).astype(np.int64)
        np.testing.assert_array_equal(_popcount(values),
                                      loop_popcount(values, num_steps))
        assert _popcount(values).dtype == np.int64

    @pytest.mark.parametrize("num_steps", range(1, 17))
    def test_dense_and_gather_sums_equal_shift_loop(self, rng, num_steps):
        """``_popcount_sum`` on mostly-zero tensors with a silent image
        and saturated entries, weighted along either spatial axis and
        unweighted."""
        _, engines = engines_for(SMALL, (1, 8, 8), 3)
        dense = engines["vectorized"]
        top = (1 << num_steps) - 1
        x = rng.integers(0, top + 1, size=(5, 3, 6, 7)).astype(np.int64)
        x[rng.random(x.shape) < 0.6] = 0
        x[0] = 0            # a silent image
        x[1, 0, 0, :] = top  # saturated entries
        pops = loop_popcount(x, num_steps)
        for axis, extent in ((2, 6), (3, 7)):
            weights = rng.integers(1, 5, size=extent).astype(np.int64)
            shape = [1] * x.ndim
            shape[axis] = -1
            want = (pops * weights.reshape(shape)).reshape(5, -1).sum(axis=1)
            got = dense._popcount_sum(x, num_steps, weights, axis)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64
        np.testing.assert_array_equal(
            dense._popcount_sum(x.reshape(5, -1), num_steps),
            pops.reshape(5, -1).sum(axis=1))


@pytest.mark.parametrize("layers,input_shape,num_steps,count", [
    (LENET5, (1, 32, 32), 4, 2),
    (SMALL, (1, 8, 8), 3, 5),
], ids=["lenet5", "small"])
class TestBatchTraceMatchesPerImageTraces:
    def test_merges_equal_from_traces(self, rng, layers, input_shape,
                                      num_steps, count):
        net, engines = engines_for(layers, input_shape, num_steps)
        images = sparse_images(rng, net, count)
        expected = None
        for name, engine in engines.items():
            logits, traces = engine.run_batch(images)
            merged_logits, batch = engine.run_merged(images)
            np.testing.assert_array_equal(logits, merged_logits)
            want = TraceMerge.from_traces(traces)
            assert batch.merged() == want, name
            for index, trace in enumerate(traces):
                assert batch.image(index) == TraceMerge.from_traces([trace])
            assert BatchTrace.from_traces(traces) == batch, name
            if expected is None:
                expected = want
            assert want == expected, name  # every backend, same table

    def test_layer_rows_sum_to_totals(self, rng, layers, input_shape,
                                      num_steps, count):
        net, engines = engines_for(layers, input_shape, num_steps)
        images = sparse_images(rng, net, count)
        _, traces = engines["vectorized"].run_batch(images)
        merged = engines["vectorized"].run_merged(images)[1].merged()
        assert merged.layers == traces[0].layer_ids()
        assert merged.table.shape == (len(traces[0].layers),
                                      len(MERGE_COLUMNS))
        assert merged.total_cycles == sum(t.total_cycles for t in traces)
        assert merged.total_adder_ops == sum(t.total_adder_ops
                                             for t in traces)
        traffic = merged.total_traffic()
        for field in ("activation_read_bits", "activation_write_bits",
                      "kernel_read_values", "weight_stream_bits"):
            assert getattr(traffic, field) == sum(
                getattr(t.total_traffic(), field) for t in traces)
        for row, (name, _) in enumerate(merged.layers):
            for column in ("cycles", "dram_cycles", "adder_ops"):
                assert merged.column(column)[row] == sum(
                    getattr(t.layers[row], column) for t in traces), name


class TestContracts:
    def test_differing_charges_refused(self, rng):
        net, engines = engines_for(SMALL, (1, 8, 8), 3)
        _, traces = engines["vectorized"].run_batch(
            sparse_images(rng, net, 3))
        traces[2].layers[1].cycles += 1
        with pytest.raises(SimulationError):
            BatchTrace.from_traces(traces)

    def test_different_layer_programs_do_not_merge(self, rng):
        small, engines = engines_for(SMALL, (1, 8, 8), 3)
        other, others = engines_for(SMALL[:1] + SMALL[3:], (1, 8, 8), 3)
        merged = engines["vectorized"].run_merged(
            sparse_images(rng, small, 2))[1].merged()
        with pytest.raises(SimulationError):
            merged.merge(others["vectorized"].run_merged(
                sparse_images(rng, other, 2))[1].merged())

    def test_scalar_store_entry_loads_with_same_totals(self, tmp_path,
                                                      rng):
        net = performance_network(SMALL, input_shape=(1, 8, 8),
                                  num_steps=3, seed=3)
        task = SweepTask(key="cell", network=net,
                         config=AcceleratorConfig.for_network(net),
                         images=sparse_images(rng, net, 4),
                         labels=np.zeros(4, dtype=np.int64))
        store = ArtifactStore(tmp_path)
        fresh = SweepDriver(store=store).run([task])["cell"]
        merged = fresh.trace
        traffic = merged.total_traffic()
        # The entry as the scalar TraceMerge.to_dict wrote it.
        entry = fresh.to_dict()
        entry["trace"] = {
            "num_images": merged.num_images,
            "input_cycles": merged.input_cycles,
            "compute_cycles": int(merged.column("cycles").sum()),
            "dram_cycles": int(merged.column("dram_cycles").sum()),
            "adder_ops": merged.total_adder_ops,
            "traffic": {name: getattr(traffic, name) for name in (
                "activation_read_bits", "activation_write_bits",
                "kernel_read_values", "weight_stream_bits")},
        }
        store.save_result(SweepDriver.store_key(task), entry)
        outcome = SweepDriver(store=store).run([task])["cell"]
        assert outcome.cached
        np.testing.assert_array_equal(outcome.predictions,
                                      fresh.predictions)
        loaded = outcome.trace
        assert loaded.num_images == merged.num_images
        assert loaded.total_cycles == merged.total_cycles
        assert loaded.total_adder_ops == merged.total_adder_ops
        assert loaded.total_traffic() == traffic
        assert TraceMerge.from_dict(loaded.to_dict()) == loaded
