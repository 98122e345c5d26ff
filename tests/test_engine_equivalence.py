"""Cross-backend equivalence: the vectorized engine must be bit- and
trace-identical to the reference shift-register/adder-array model.

Every test runs both engines on the same deployment and asserts (a)
bit-identical integer logits and (b) identical execution traces — cycle
counts, DRAM cycles, data-dependent adder-operation counts, and every
memory-traffic counter, layer by layer.  Randomness flows through the
shared ``rng`` fixture (tests/conftest.py) so failures reproduce.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    Accelerator,
    AcceleratorConfig,
    Controller,
    ReferenceEngine,
    VectorizedEngine,
    available_backends,
    compile_network,
    create_engine,
)
from repro.core.config import LinearUnitConfig, MemoryConfig
from repro.errors import ConfigurationError, ShapeError
from repro.models import performance_network
from repro.snn import SNNModel

TRAFFIC_FIELDS = ("activation_read_bits", "activation_write_bits",
                  "kernel_read_values", "weight_stream_bits")


def assert_traces_identical(ref_trace, vec_trace):
    """Full structural equality of two execution traces."""
    assert ref_trace.input_cycles == vec_trace.input_cycles
    assert len(ref_trace.layers) == len(vec_trace.layers)
    for ref_layer, vec_layer in zip(ref_trace.layers, vec_trace.layers):
        context = ref_layer.name
        assert ref_layer.name == vec_layer.name, context
        assert ref_layer.kind == vec_layer.kind, context
        assert ref_layer.cycles == vec_layer.cycles, context
        assert ref_layer.dram_cycles == vec_layer.dram_cycles, context
        assert ref_layer.adder_ops == vec_layer.adder_ops, context
        for field in TRAFFIC_FIELDS:
            assert (getattr(ref_layer.traffic, field)
                    == getattr(vec_layer.traffic, field)), (context, field)
    assert ref_trace.total_cycles == vec_trace.total_cycles
    assert ref_trace.total_adder_ops == vec_trace.total_adder_ops


def run_both(net, config, images):
    """Run a batch on every backend; returns (logits, traces) pairs.

    The ``sparse`` backend name is asserted bit- and trace-identical to
    the reference inline, so every caller's scenario covers it; the
    return keeps the historical (reference, vectorized) two-way
    unpacking.
    """
    snn = SNNModel(net)
    results = {}
    for backend in ("reference", "vectorized", "sparse"):
        accelerator = Accelerator(config, backend=backend)
        accelerator.deploy(snn)
        results[backend] = accelerator.run_logits(images)
    ref_logits, ref_traces = results["reference"]
    sparse_logits, sparse_traces = results["sparse"]
    np.testing.assert_array_equal(ref_logits, sparse_logits)
    for ref_trace, sparse_trace in zip(ref_traces, sparse_traces):
        assert_traces_identical(ref_trace, sparse_trace)
    return [results["reference"], results["vectorized"]]


LAYER_STACKS = {
    "conv-pool-fc": [("conv", 4, 3, 1, 1), ("pool", 2),
                     ("flatten",), ("linear", 16), ("linear", 5)],
    "strided-conv": [("conv", 3, 3, 2, 0), ("conv", 5, 3, 1, 1),
                     ("flatten",), ("linear", 6)],
    "padded-strided": [("conv", 5, 3, 2, 1), ("pool", 2),
                       ("flatten",), ("linear", 8), ("linear", 4)],
    "1x1-conv": [("conv", 8, 1, 1, 0), ("pool", 2),
                 ("flatten",), ("linear", 4)],
    "deep": [("conv", 4, 3, 1, 1), ("pool", 2), ("conv", 6, 3, 1, 0),
             ("flatten",), ("linear", 16), ("linear", 12), ("linear", 5)],
}


class TestRandomLayerEquivalence:
    @pytest.mark.parametrize("stack", sorted(LAYER_STACKS))
    @pytest.mark.parametrize("num_steps", [3, 5])
    def test_bit_and_trace_identical(self, stack, num_steps, rng):
        net = performance_network(
            LAYER_STACKS[stack], input_shape=(1, 10, 10),
            num_steps=num_steps, seed=int(rng.integers(1 << 16)))
        config = AcceleratorConfig.for_network(
            net, num_conv_units=int(rng.integers(1, 4)))
        images = rng.random((3,) + net.input_shape)
        (ref_logits, ref_traces), (vec_logits, vec_traces) = run_both(
            net, config, images)
        np.testing.assert_array_equal(ref_logits, vec_logits)
        for ref_trace, vec_trace in zip(ref_traces, vec_traces):
            assert_traces_identical(ref_trace, vec_trace)

    def test_multi_channel_input(self, rng):
        net = performance_network(
            [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",),
             ("linear", 6)],
            input_shape=(3, 8, 8), num_steps=4,
            seed=int(rng.integers(1 << 16)))
        config = AcceleratorConfig.for_network(net, num_conv_units=2)
        images = rng.random((2,) + net.input_shape)
        (ref_logits, ref_traces), (vec_logits, vec_traces) = run_both(
            net, config, images)
        np.testing.assert_array_equal(ref_logits, vec_logits)
        assert_traces_identical(ref_traces[0], vec_traces[0])

    def test_narrow_linear_unit(self, rng):
        net = performance_network(
            [("conv", 2, 3, 1, 1), ("flatten",), ("linear", 9),
             ("linear", 4)],
            input_shape=(1, 5, 5), num_steps=3,
            seed=int(rng.integers(1 << 16)))
        config = replace(AcceleratorConfig.for_network(net),
                         linear_unit=LinearUnitConfig(parallel_outputs=2))
        images = rng.random((2,) + net.input_shape)
        (ref_logits, ref_traces), (vec_logits, vec_traces) = run_both(
            net, config, images)
        np.testing.assert_array_equal(ref_logits, vec_logits)
        assert_traces_identical(ref_traces[1], vec_traces[1])

    def test_dram_streaming_path(self, rng):
        """Off-chip weights: DRAM cycles and stream traffic must agree."""
        net = performance_network(
            [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",),
             ("linear", 8), ("linear", 3)],
            input_shape=(1, 10, 10), num_steps=3,
            seed=int(rng.integers(1 << 16)))
        config = replace(AcceleratorConfig.for_network(net),
                         memory=MemoryConfig(onchip_weight_capacity=1))
        images = rng.random((2,) + net.input_shape)
        (ref_logits, ref_traces), (vec_logits, vec_traces) = run_both(
            net, config, images)
        np.testing.assert_array_equal(ref_logits, vec_logits)
        assert_traces_identical(ref_traces[0], vec_traces[0])
        assert any(l.dram_cycles > 0 for l in vec_traces[0].layers)
        assert vec_traces[0].total_traffic().weight_stream_bits > 0


def lenet5_network(num_steps, seed):
    """LeNet-5 geometry with random quantized weights (no training)."""
    return performance_network(
        [("conv", 6, 5, 1, 0), ("pool", 2), ("conv", 16, 5, 1, 0),
         ("pool", 2), ("conv", 120, 5, 1, 0), ("flatten",),
         ("linear", 120), ("linear", 84), ("linear", 10)],
        input_shape=(1, 32, 32), num_steps=num_steps, seed=seed)


class TestLeNetEndToEnd:
    def test_lenet_bit_and_trace_identical(self, rng):
        net = lenet5_network(num_steps=3, seed=int(rng.integers(1 << 16)))
        config = AcceleratorConfig.for_network(net, num_conv_units=2)
        images = rng.random((2,) + net.input_shape)
        (ref_logits, ref_traces), (vec_logits, vec_traces) = run_both(
            net, config, images)
        np.testing.assert_array_equal(ref_logits, vec_logits)
        for ref_trace, vec_trace in zip(ref_traces, vec_traces):
            assert_traces_identical(ref_trace, vec_trace)

    def test_lenet_matches_snn_reference(self, rng):
        """Both engines must equal the integer reference semantics."""
        net = lenet5_network(num_steps=4, seed=int(rng.integers(1 << 16)))
        snn = SNNModel(net)
        images = rng.random((2,) + net.input_shape)
        expected = snn.forward_ints(images)
        accelerator = Accelerator(
            AcceleratorConfig.for_network(net), backend="vectorized")
        accelerator.deploy(snn)
        logits, _ = accelerator.run_logits(images)
        np.testing.assert_array_equal(logits, expected)


class TestVectorizedBatching:
    def test_batch_equals_per_image_runs(self, rng):
        net = performance_network(
            [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",),
             ("linear", 5)],
            input_shape=(1, 8, 8), num_steps=3,
            seed=int(rng.integers(1 << 16)))
        accelerator = Accelerator(AcceleratorConfig.for_network(net),
                                  backend="vectorized")
        accelerator.deploy(SNNModel(net))
        images = rng.random((4,) + net.input_shape)
        batch_logits, batch_traces = accelerator.run_logits(images)
        for i in range(images.shape[0]):
            logits, trace = accelerator.run_image(images[i])
            np.testing.assert_array_equal(logits, batch_logits[i])
            assert_traces_identical(trace, batch_traces[i])

    def test_predictions_match_reference_backend(self, rng):
        net = performance_network(
            [("conv", 4, 3, 1, 1), ("flatten",), ("linear", 5)],
            input_shape=(1, 6, 6), num_steps=3,
            seed=int(rng.integers(1 << 16)))
        snn = SNNModel(net)
        images = rng.random((3,) + net.input_shape)
        ref = Accelerator(AcceleratorConfig.for_network(net))
        ref.deploy(snn)
        vec = Accelerator(AcceleratorConfig.for_network(net),
                          backend="vectorized")
        vec.deploy(snn)
        ref_preds, _ = ref.run(images)
        vec_preds, _ = vec.run(images)
        np.testing.assert_array_equal(ref_preds, vec_preds)
        np.testing.assert_array_equal(vec_preds, snn.predict(images))

    def test_bad_batch_shape_raises(self, rng):
        net = performance_network(
            [("conv", 2, 3, 1, 1), ("flatten",), ("linear", 3)],
            input_shape=(1, 6, 6), num_steps=3, seed=0)
        accelerator = Accelerator(AcceleratorConfig.for_network(net),
                                  backend="vectorized")
        accelerator.deploy(SNNModel(net))
        with pytest.raises(ShapeError):
            accelerator.run(np.zeros((1, 6, 6)))
        with pytest.raises(ShapeError):
            accelerator.run(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError):
            accelerator.run(np.zeros((0, 1, 6, 6)))


class TestEngineRegistry:
    def test_builtin_backends_registered(self):
        assert "reference" in available_backends()
        assert "vectorized" in available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            Accelerator(AcceleratorConfig(), backend="warp-drive")

    def test_abstract_engine_rejected(self):
        from repro.core import ExecutionEngine
        with pytest.raises(ConfigurationError):
            Accelerator(AcceleratorConfig(), backend=ExecutionEngine)

    def test_engine_class_accepted(self):
        accelerator = Accelerator(AcceleratorConfig(),
                                  backend=VectorizedEngine)
        assert accelerator.backend == "vectorized"

    def test_create_engine_from_compiled(self):
        net = performance_network(
            [("conv", 2, 3, 1, 1), ("flatten",), ("linear", 3)],
            input_shape=(1, 6, 6), num_steps=3, seed=1)
        compiled = compile_network(
            net, AcceleratorConfig.for_network(net))
        engine = create_engine("vectorized", compiled)
        assert isinstance(engine, VectorizedEngine)
        assert isinstance(create_engine(ReferenceEngine, compiled),
                          ReferenceEngine)

    def test_controller_exposes_backend(self):
        net = performance_network(
            [("conv", 2, 3, 1, 1), ("flatten",), ("linear", 3)],
            input_shape=(1, 6, 6), num_steps=3, seed=1)
        compiled = compile_network(
            net, AcceleratorConfig.for_network(net))
        controller = Controller(compiled, backend="vectorized")
        assert controller.backend == "vectorized"

    def test_use_backend_switches_engine(self, rng):
        net = performance_network(
            [("conv", 2, 3, 1, 1), ("flatten",), ("linear", 3)],
            input_shape=(1, 6, 6), num_steps=3,
            seed=int(rng.integers(1 << 16)))
        snn = SNNModel(net)
        accelerator = Accelerator(AcceleratorConfig.for_network(net))
        accelerator.deploy(snn)
        image = rng.random(net.input_shape)
        ref_logits, ref_trace = accelerator.run_image(image)
        accelerator.use_backend("vectorized")
        assert accelerator.backend == "vectorized"
        vec_logits, vec_trace = accelerator.run_image(image)
        np.testing.assert_array_equal(ref_logits, vec_logits)
        assert_traces_identical(ref_trace, vec_trace)
