"""Silent-image skipping: the vectorized engine's one skip must be inert.

The vectorized engine earns its speed on event-style inputs by *not*
computing silent images: each layer runs its kernel only on the images
whose spike count (the one it already takes for the adder counters) is
nonzero, and gives the others the exact zero accumulator.  ``sparse``
is an alias of that engine.  Each edge case here builds a batch that
exercises one edge of the skip (all silent, partly silent, all live,
one spike, values that quantize to silence, silence that a bias turns
live again mid-stack) and asserts bit-identical logits and fully
identical traces across ``reference``, ``vectorized`` and ``sparse``.

``TestOneEngine`` pins the alias itself: both names select one class
and share one warm engine, and a stream that mixes silent and live
frames over a thread+process+remote lane mix merges bit-identically to
a serial run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import Accelerator, AcceleratorConfig
from repro.core.engine import (
    VectorizedEngine,
    available_backends,
    create_engine,
    resolve_backend,
    warm_compile,
    warm_engine,
)
from repro.core.engine.calibrate import probe_batch
from repro.errors import ConfigurationError, ShapeError
from repro.models import performance_network
from repro.runtime import Deployment, WorkItem, WorkerGroup, WorkerServer
from repro.runtime import create_workers
from repro.snn import SNNModel


BACKENDS = ("reference", "vectorized", "sparse")

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
        outputs[backend] = accelerator.run_logits(images)
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
        """Saturated inputs: every image live, the plain dense call."""
        net = _net(int(rng.integers(1 << 16)))
        images = np.clip(rng.random((2,) + net.input_shape), 0.5, None)
        assert images.all()
        _assert_all_equal(net, images)

    def test_single_active_pixel(self, rng):
        """One spike in the whole batch: one live image of two."""
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
        """Geometry stress: stride/padding offsets in the column cover
        that decides which images a layer counts as live."""
        net = _net(int(rng.integers(1 << 16)),
                   stack=[("conv", 3, 3, 2, 1), ("conv", 5, 3, 1, 0),
                          ("flatten",), ("linear", 6)])
        images = rng.random((3,) + net.input_shape)
        images[images < 0.8] = 0.0
        _assert_all_equal(net, images)

    def test_spikes_only_where_no_tap_reads(self, rng):
        """A 3-wide, stride-2 kernel over 8 columns never reads column 7:
        an image spiking only there is skipped (its spike count is zero)
        and must still match the reference, which reads nothing there
        either."""
        net = _net(int(rng.integers(1 << 16)),
                   stack=[("conv", 3, 3, 2, 0), ("flatten",),
                          ("linear", 6)])
        images = rng.random((3,) + net.input_shape)
        images[images < 0.6] = 0.0
        images[1] = 0.0
        images[1, :, :, 7] = 0.9
        _assert_all_equal(net, images)

    def test_multi_channel_sparse(self, rng):
        """Channel-major im2col layout with one silent channel."""
        net = _net(int(rng.integers(1 << 16)), input_shape=(3, 6, 6))
        images = rng.random((2,) + net.input_shape)
        images[:, 1] = 0.0
        _assert_all_equal(net, images)

    def test_sparse_engine_registered(self):
        assert "sparse" in available_backends()
        accelerator = Accelerator(AcceleratorConfig(), backend="sparse")
        assert accelerator.backend == "vectorized"
        assert isinstance(accelerator, Accelerator)

    def test_sparse_engine_class_selectable(self):
        accelerator = Accelerator(AcceleratorConfig(),
                                  backend=VectorizedEngine)
        assert accelerator.backend == "vectorized"

    def test_bias_wakes_silent_frames_after_the_first_layer(self, rng):
        """Nonzero biases: a silent frame's conv1 output is its
        requantized bias, so every later layer sees it live.  A skip
        that carried a frame's silence past its first layer would zero
        those layers and miss the reference logits and adder counts."""
        net = _biased(_net(int(rng.integers(1 << 16)), stack=[
            ("conv", 4, 3, 1, 1), ("pool", 2), ("conv", 6, 3, 1, 1),
            ("flatten",), ("linear", 12), ("linear", 5)]), rng)
        images = rng.random((6,) + net.input_shape)
        images[images < 0.7] = 0.0
        silent = [0, 2, 5]
        images[silent] = 0.0
        compiled = warm_compile(net, AcceleratorConfig.for_network(net))
        _, batch = create_engine("vectorized", compiled).run_merged(images)
        adds = [column for column, (_, kind) in enumerate(batch.layers)
                if kind != "flatten"]
        assert (batch.adder_ops[silent, 0] == 0).all()
        assert (batch.adder_ops[silent][:, adds[1:]] > 0).all()
        _assert_all_equal(net, images)


def _biased(net, rng):
    """``net`` with nonzero conv and linear biases.

    Every conv and hidden linear bias requantizes to 1..3 on its own, so
    a silent frame's first layer already spikes everywhere; the output
    layer's biases are signed.
    """
    layers = []
    for spec in net.layers:
        if spec.kind in ("conv", "linear"):
            low = -3 if getattr(spec, "is_output", False) else 1
            levels = rng.integers(low, 4, size=spec.bias.shape)
            spec = replace(spec, bias=np.rint(levels / spec.scales)
                           .astype(np.int64))
        layers.append(spec)
    return replace(net, layers=tuple(layers))


class TestOneEngine:
    def test_three_backends_and_no_auto(self, rng):
        assert available_backends() == ("reference", "sparse", "vectorized")
        net = _net(int(rng.integers(1 << 16)))
        compiled = warm_compile(net, AcceleratorConfig.for_network(net))
        with pytest.raises(ConfigurationError,
                           match="reference, sparse, vectorized"):
            create_engine("auto", compiled)

    def test_sparse_is_an_alias_of_vectorized(self, rng):
        assert resolve_backend("sparse") is VectorizedEngine
        net = _net(int(rng.integers(1 << 16)))
        config = AcceleratorConfig.for_network(net)
        assert (warm_engine(net, config, "sparse")
                is warm_engine(net, config, "vectorized"))
        deployments = [Deployment(network=net, config=config,
                                  backend=backend)
                       for backend in ("sparse", "vectorized")]
        assert deployments[0].fingerprint == deployments[1].fingerprint
        assert deployments[0].engine() is deployments[1].engine()

    def test_all_zero_batch_and_check_batch(self, rng):
        net = _net(int(rng.integers(1 << 16)), num_steps=3)
        compiled = warm_compile(net, AcceleratorConfig.for_network(net))
        engine = create_engine("sparse", compiled)
        silent = np.zeros((2,) + tuple(net.input_shape))
        logits, traces = engine.run_batch(silent)
        want_logits, want_traces = create_engine(
            "reference", compiled).run_batch(silent)
        np.testing.assert_array_equal(logits, want_logits)
        assert traces == want_traces
        with pytest.raises(ShapeError):
            engine.run_batch(np.zeros((0,) + tuple(net.input_shape)))
        with pytest.raises(ShapeError):
            engine.run_merged(np.zeros((2, 3, 3)))

    @pytest.mark.usefixtures("fabric_leak_check")
    def test_mixed_silent_stream_merges_bit_identically(self, rng):
        """``sparse`` on a thread+process+remote mix == serial
        vectorized, logits and merged traces alike."""
        net = _net(int(rng.integers(1 << 16)), num_steps=3)
        config = AcceleratorConfig.for_network(net)
        shape = tuple(net.input_shape)
        # Silent, partly silent, quiet and dense batches interleaved.
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
