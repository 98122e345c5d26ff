"""Sparsity edge cases: the sparse backend's skip logic must be inert.

The sparse engine earns its speed by *not* computing silent spike
planes — all-zero images, patches no spike touches, dead input taps.
Each skip is a claim that the skipped work contributes exactly zero,
and each has an edge where the claim could quietly break (empty live
masks, dense fallbacks, single-survivor gathers).  Every edge-case test
here builds a batch that exercises one such edge and asserts
bit-identical logits and fully identical traces across ``reference``,
``vectorized`` and ``sparse`` — the last with batch routing pinned off,
so dense and random batches reach the hooks instead of the vectorized
engine.

The routing tests pin the batch router itself: it routes exactly at the
calibrated crossover (sparse hooks at/below, vectorized above), every
decision lands on ``engine_auto_routed_total{backend=...}``, and a
mixed-density stream over a thread+process+remote lane mix merges
bit-identically to a serial ``vectorized`` run.
"""

import numpy as np
import pytest

from repro.core import Accelerator, AcceleratorConfig
from repro.core.calibration import DEFAULT_LATENCY
from repro.core.engine import (
    CalibrationTable,
    available_backends,
    clear_calibration_tables,
    create_engine,
    install_table,
    warm_compile,
)
from repro.core.engine.cache import content_key
from repro.core.engine.calibrate import DEFAULT_DENSE_FALLBACK, probe_batch
from repro.core.engine.sparse import SparseEngine
from repro.errors import ConfigurationError, ShapeError
from repro.models import performance_network
from repro.runtime import Deployment, WorkItem, WorkerGroup, WorkerServer
from repro.runtime import create_workers
from repro.snn import SNNModel
from repro.telemetry import get_registry

from engine_helpers import UnroutedSparse


BACKENDS = ("reference", "vectorized", UnroutedSparse)

TRAFFIC_FIELDS = ("activation_read_bits", "activation_write_bits",
                  "kernel_read_values", "weight_stream_bits")


def _assert_all_equal(net, images, num_conv_units=2):
    """Run all three backends; assert identical logits and traces."""
    config = AcceleratorConfig.for_network(net,
                                           num_conv_units=num_conv_units)
    snn = SNNModel(net)
    outputs = {}
    for backend in BACKENDS:
        accelerator = Accelerator(config, backend=backend)
        accelerator.deploy(snn)
        outputs[accelerator.backend] = accelerator.run_logits(images)
    ref_logits, ref_traces = outputs["reference"]
    for backend in ("vectorized", "sparse"):
        logits, traces = outputs[backend]
        np.testing.assert_array_equal(ref_logits, logits, err_msg=backend)
        for ref_trace, trace in zip(ref_traces, traces):
            assert ref_trace.input_cycles == trace.input_cycles, backend
            assert ref_trace.total_cycles == trace.total_cycles, backend
            for ref_layer, layer in zip(ref_trace.layers, trace.layers):
                assert ref_layer.cycles == layer.cycles, backend
                assert ref_layer.dram_cycles == layer.dram_cycles, backend
                assert ref_layer.adder_ops == layer.adder_ops, (
                    backend, ref_layer.name)
                for field in TRAFFIC_FIELDS:
                    assert (getattr(ref_layer.traffic, field)
                            == getattr(layer.traffic, field)), (
                        backend, ref_layer.name, field)
    return ref_logits


def _net(seed, stack=None, input_shape=(1, 8, 8), num_steps=4):
    return performance_network(
        stack or [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",),
                  ("linear", 12), ("linear", 5)],
        input_shape=input_shape, num_steps=num_steps, seed=seed)


class TestSparsityEdgeCases:
    def test_all_zero_batch(self, rng):
        """Every image silent: every layer takes the skip-everything path."""
        net = _net(int(rng.integers(1 << 16)))
        images = np.zeros((3,) + net.input_shape)
        logits = _assert_all_equal(net, images)
        # All-zero inputs yield bias-only logits, identical per image.
        assert (logits == logits[0]).all()

    def test_zero_images_mixed_into_batch(self, rng):
        """Silent images ride alongside live ones (partial live mask)."""
        net = _net(int(rng.integers(1 << 16)))
        images = rng.random((4,) + net.input_shape)
        images[1] = 0.0
        images[3] = 0.0
        _assert_all_equal(net, images)

    def test_fully_dense_planes(self, rng):
        """Saturated inputs: the dense-fallback branch must stay exact."""
        net = _net(int(rng.integers(1 << 16)))
        images = np.clip(rng.random((2,) + net.input_shape), 0.5, None)
        assert images.astype(bool).mean() > DEFAULT_DENSE_FALLBACK
        _assert_all_equal(net, images)

    def test_single_active_pixel(self, rng):
        """One spike in the whole batch: single-row gathers everywhere."""
        net = _net(int(rng.integers(1 << 16)))
        images = np.zeros((2,) + net.input_shape)
        images[0, 0, 3, 4] = 0.9
        _assert_all_equal(net, images)

    def test_single_active_row(self, rng):
        """One live input row: most im2col patches stay silent."""
        net = _net(int(rng.integers(1 << 16)))
        images = np.zeros((2,) + net.input_shape)
        images[:, :, 5, :] = rng.random((2, 1, net.input_shape[2]))
        _assert_all_equal(net, images)

    def test_subthreshold_values_quantize_to_silence(self, rng):
        """Values below the T-step grid produce empty spike trains.

        With ``num_steps=3`` anything under 1/8 floors to zero — the
        batch looks nonzero in float but is silent after quantization.
        """
        net = _net(int(rng.integers(1 << 16)), num_steps=3)
        images = rng.random((2,) + net.input_shape) * 0.12
        logits = _assert_all_equal(net, images)
        assert (logits == logits[0]).all()

    def test_strided_padded_stack_with_sparse_input(self, rng):
        """Geometry stress: stride/padding offsets in the patch gather."""
        net = _net(int(rng.integers(1 << 16)),
                   stack=[("conv", 3, 3, 2, 1), ("conv", 5, 3, 1, 0),
                          ("flatten",), ("linear", 6)])
        images = rng.random((3,) + net.input_shape)
        images[images < 0.8] = 0.0
        _assert_all_equal(net, images)

    def test_multi_channel_sparse(self, rng):
        """Channel-major im2col layout with one silent channel."""
        net = _net(int(rng.integers(1 << 16)), input_shape=(3, 6, 6))
        images = rng.random((2,) + net.input_shape)
        images[:, 1] = 0.0
        _assert_all_equal(net, images)

    def test_sparse_engine_registered(self):
        from repro.core import available_backends
        assert "sparse" in available_backends()
        accelerator = Accelerator(AcceleratorConfig(), backend="sparse")
        assert accelerator.backend == "sparse"
        assert isinstance(accelerator, Accelerator)

    def test_sparse_engine_class_selectable(self):
        accelerator = Accelerator(AcceleratorConfig(),
                                  backend=SparseEngine)
        assert accelerator.backend == "sparse"


def _routed_total(backend: str) -> float:
    return get_registry().counter(
        "engine_auto_routed_total",
        labelnames=("backend",)).labels(backend=backend).value


@pytest.fixture
def isolated_tables():
    clear_calibration_tables()
    yield
    clear_calibration_tables()


@pytest.mark.usefixtures("isolated_tables")
class TestBatchRouting:
    def test_three_backends_and_no_auto(self, rng):
        assert available_backends() == ("reference", "sparse", "vectorized")
        net = _net(int(rng.integers(1 << 16)))
        compiled = warm_compile(net, AcceleratorConfig.for_network(net))
        with pytest.raises(ConfigurationError,
                           match="reference, sparse, vectorized"):
            create_engine("auto", compiled)

    def test_routes_at_the_calibrated_crossover(self, rng):
        net = _net(int(rng.integers(1 << 16)), num_steps=3)
        config = AcceleratorConfig.for_network(net)
        install_table(CalibrationTable(
            content_key=content_key(net, config, DEFAULT_LATENCY),
            backend_crossover=0.5))
        compiled = warm_compile(net, config)
        engine = create_engine("sparse", compiled)
        dense = create_engine("vectorized", compiled)
        assert engine.thresholds.route_density == 0.5
        shape = tuple(net.input_shape)
        quiet = probe_batch(shape, 0.05, 4, rng)
        # Above the uncalibrated 0.25, at or below the calibrated 0.5.
        middle = probe_batch(shape, 0.35, 4, rng)
        assert 0.25 < np.count_nonzero(middle) / middle.size <= 0.5
        loud = probe_batch(shape, 0.9, 4, rng)

        sparse_before = _routed_total("sparse")
        vec_before = _routed_total("vectorized")
        results = [(engine.run_batch(images), dense.run_batch(images))
                   for images in (quiet, middle, loud)]
        assert _routed_total("sparse") == sparse_before + 2
        assert _routed_total("vectorized") == vec_before + 1
        for (logits, traces), (want_logits, want_traces) in results:
            np.testing.assert_array_equal(logits, want_logits)
            assert traces == want_traces
        # run_merged routes through the same check.
        engine.run_merged(loud)
        assert _routed_total("vectorized") == vec_before + 2

    def test_pinned_engine_never_routes(self, rng):
        net = _net(int(rng.integers(1 << 16)))
        engine = UnroutedSparse(
            warm_compile(net, AcceleratorConfig.for_network(net)))
        dense = np.clip(rng.random((3,) + net.input_shape), 0.5, None)
        sparse_before = _routed_total("sparse")
        vec_before = _routed_total("vectorized")
        engine.run_batch(dense)
        engine.run_merged(dense)
        assert _routed_total("vectorized") == vec_before
        assert _routed_total("sparse") == sparse_before + 2

    def test_all_zero_batch_and_check_batch(self, rng):
        net = _net(int(rng.integers(1 << 16)), num_steps=3)
        compiled = warm_compile(net, AcceleratorConfig.for_network(net))
        engine = create_engine("sparse", compiled)
        silent = np.zeros((2,) + tuple(net.input_shape))
        vec_before = _routed_total("vectorized")
        logits, traces = engine.run_batch(silent)
        assert _routed_total("vectorized") == vec_before
        want_logits, want_traces = create_engine(
            "vectorized", compiled).run_batch(silent)
        np.testing.assert_array_equal(logits, want_logits)
        assert traces == want_traces
        with pytest.raises(ShapeError):
            engine.run_batch(np.zeros((0,) + tuple(net.input_shape)))
        with pytest.raises(ShapeError):
            engine.run_merged(np.zeros((2, 3, 3)))

    def test_mixed_density_stream_merges_bit_identically(self, rng):
        """Routed sparse on a thread+process+remote mix == serial
        vectorized, logits and merged traces alike."""
        net = _net(int(rng.integers(1 << 16)), num_steps=3)
        config = AcceleratorConfig.for_network(net)
        shape = tuple(net.input_shape)
        # A mixed-density stream: silent, quiet event frames, and dense
        # batches interleaved, so the router goes both ways mid-run.
        batches = [probe_batch(shape, d, 3, rng, silent_frac=s)
                   for d, s in ((0.02, 0.5), (0.9, 0.0), (0.05, 1.0),
                                (0.5, 0.0), (0.1, 0.2), (0.8, 0.0))]
        items = [WorkItem(item_id=i, deployment=0, images=images)
                 for i, images in enumerate(batches)]

        def run(backend, workers):
            deployment = Deployment(network=net, config=config,
                                    backend=backend)
            with WorkerGroup(workers, deployments=[deployment]) as group:
                return group.run(items)

        baseline = run("vectorized", create_workers(["thread"]))
        server = WorkerServer().start()
        try:
            mixed = run("sparse", create_workers(
                ["thread", "process", f"127.0.0.1:{server.port}"]))
        finally:
            server.close()
        for base, other in zip(baseline, mixed):
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()
