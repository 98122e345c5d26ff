"""End-to-end tests of the functional accelerator: bit-exactness against
the SNN reference, cycle agreement with the analytic model, and the
facade's reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Accelerator,
    AcceleratorConfig,
    Controller,
    LatencyModel,
    compile_network,
)
from repro.errors import CompilationError, ShapeError, SimulationError
from repro.models import performance_network
from repro.snn import SNNModel


def random_network(seed=0, num_steps=3):
    """A small but structurally complete network (conv/pool/fc, padding)."""
    return performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("conv", 6, 3, 1, 0),
         ("flatten",), ("linear", 16), ("linear", 5)],
        input_shape=(1, 10, 10), num_steps=num_steps, seed=seed)


class TestFunctionalExactness:
    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=0, max_value=20),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_accelerator_equals_reference(self, num_steps, seed, units):
        net = random_network(seed=seed, num_steps=num_steps)
        snn = SNNModel(net)
        config = AcceleratorConfig.for_network(net, num_conv_units=units)
        accelerator = Accelerator(config)
        accelerator.deploy(snn)
        rng = np.random.default_rng(seed + 1)
        images = rng.random((2,) + net.input_shape)
        expected = snn.forward_ints(images)
        for i in range(2):
            logits, _ = accelerator.run_image(images[i])
            np.testing.assert_array_equal(logits, expected[i])

    def test_batch_predictions(self):
        net = random_network()
        snn = SNNModel(net)
        accelerator = Accelerator(AcceleratorConfig.for_network(net))
        accelerator.deploy(snn)
        images = np.random.default_rng(0).random((3,) + net.input_shape)
        preds, traces = accelerator.run(images)
        np.testing.assert_array_equal(preds, snn.predict(images))
        assert len(traces) == 3

    def test_functional_cycles_match_analytic_model(self):
        """The reference engine's unit loops and the analytic closed
        form charge the same cycles — totals must agree exactly."""
        net = random_network()
        snn = SNNModel(net)
        config = AcceleratorConfig.for_network(net, num_conv_units=2)
        accelerator = Accelerator(config)
        accelerator.deploy(snn)
        image = np.random.default_rng(1).random(net.input_shape)
        _, trace = accelerator.run_image(image)
        analytic = LatencyModel(config).total_cycles(net)
        assert trace.total_cycles == analytic

    def test_trace_layer_names(self):
        net = random_network()
        snn = SNNModel(net)
        accelerator = Accelerator(AcceleratorConfig.for_network(net))
        accelerator.deploy(snn)
        _, trace = accelerator.run_image(
            np.random.default_rng(2).random(net.input_shape))
        assert [l.name for l in trace.layers] == [
            "conv1", "pool1", "conv2", "flatten", "fc1", "fc2"]

    def test_adder_ops_track_spikes(self):
        """A brighter image must trigger more adder operations."""
        net = random_network()
        snn = SNNModel(net)
        accelerator = Accelerator(AcceleratorConfig.for_network(net))
        accelerator.deploy(snn)
        _, dark = accelerator.run_image(np.zeros(net.input_shape))
        _, bright = accelerator.run_image(np.full(net.input_shape, 0.9))
        assert bright.total_adder_ops > dark.total_adder_ops


class TestAcceleratorFacade:
    def test_run_before_deploy_raises(self):
        accelerator = Accelerator(AcceleratorConfig())
        with pytest.raises(CompilationError):
            accelerator.run_image(np.zeros((1, 10, 10)))

    def test_wrong_image_shape_raises(self):
        net = random_network()
        accelerator = Accelerator(AcceleratorConfig.for_network(net))
        accelerator.deploy(SNNModel(net))
        with pytest.raises(ShapeError):
            accelerator.run_image(np.zeros((1, 8, 8)))
        with pytest.raises(ShapeError):
            accelerator.run(np.zeros((1, 8, 8)))

    def test_report_fields(self):
        net = random_network()
        accelerator = Accelerator(
            AcceleratorConfig.for_network(net, num_conv_units=2,
                                          clock_mhz=200.0))
        accelerator.deploy(SNNModel(net), name="tiny")
        report = accelerator.report(accuracy=0.93)
        assert report.model_name == "tiny"
        assert report.clock_mhz == 200.0
        assert report.latency_us == pytest.approx(
            report.cycles * 0.005)
        assert report.throughput_fps == pytest.approx(
            1e6 / report.latency_us)
        assert report.accuracy == 0.93
        assert report.luts > 0 and report.ffs > 0
        assert "tiny" in report.summary()

    def test_estimates_consistent_with_report(self):
        net = random_network()
        accelerator = Accelerator(AcceleratorConfig.for_network(net))
        accelerator.deploy(SNNModel(net))
        report = accelerator.report()
        assert report.cycles == accelerator.estimate_cycles()
        assert report.power_w == pytest.approx(
            accelerator.estimate_power_w())

    def test_zero_cycle_estimate_raises_clearly(self, monkeypatch):
        """A degenerate deployment estimating 0 cycles must raise a
        SimulationError instead of dividing by zero in throughput/energy."""
        net = random_network()
        accelerator = Accelerator(AcceleratorConfig.for_network(net))
        accelerator.deploy(SNNModel(net), name="degenerate")
        monkeypatch.setattr(accelerator, "estimate_cycles", lambda: 0)
        with pytest.raises(SimulationError, match="degenerate"):
            accelerator.report()


class TestControllerDramPath:
    def test_dram_cycles_charged_when_streaming(self):
        net = random_network()
        from repro.core.config import MemoryConfig
        config = AcceleratorConfig.for_network(net)
        config = AcceleratorConfig(
            num_conv_units=config.num_conv_units,
            conv_unit=config.conv_unit, pool_unit=config.pool_unit,
            memory=MemoryConfig(onchip_weight_capacity=1),
        )
        compiled = compile_network(net, config)
        assert not compiled.weights_on_chip
        controller = Controller(compiled)
        image = np.random.default_rng(0).random(net.input_shape)
        logits, trace = controller.run_image(image)
        conv_layers = [l for l in trace.layers if l.kind == "conv"]
        assert all(l.dram_cycles > 0 for l in conv_layers)
        # Bit-exactness must survive the DRAM path.
        expected = SNNModel(net).forward_ints(image[np.newaxis])[0]
        np.testing.assert_array_equal(logits, expected)
