"""Tests for the per-layer latency breakdown and cycle-formula details."""

import pytest

from repro.core import AcceleratorConfig, LatencyModel
from repro.core.calibration import LatencyCalibration
from repro.core.latency import (
    conv_pass_cycles,
    dram_stream_cycles,
    flatten_cycles,
    layer_charges,
)
from repro.models import performance_network


def small_net(num_steps=3):
    return performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("conv", 8, 3, 1, 0),
         ("flatten",), ("linear", 20), ("linear", 5)],
        input_shape=(1, 12, 12), num_steps=num_steps)


def compute_cycles(spec, config, num_steps, cal=LatencyCalibration()):
    """One layer's compute cycles from the closed form."""
    return layer_charges(spec, config, cal, num_steps, weight_bits=3,
                         weights_on_chip=True)[0]


class TestLayerLatencies:
    def test_breakdown_names_and_kinds(self):
        model = LatencyModel(AcceleratorConfig())
        layers = model.layer_latencies(small_net())
        assert [l.name for l in layers] == [
            "input", "conv1", "pool1", "conv2", "flatten", "fc1", "fc2"]
        assert layers[0].kind == "input"
        assert layers[1].kind == "conv"

    def test_total_is_sum_of_layers(self):
        model = LatencyModel(AcceleratorConfig())
        net = small_net()
        layers = model.layer_latencies(net)
        assert model.total_cycles(net) == sum(
            l.total_cycles for l in layers)

    def test_dram_cycles_only_on_weight_layers(self):
        model = LatencyModel(AcceleratorConfig())
        layers = model.layer_latencies(small_net(), weights_on_chip=False)
        for layer in layers:
            if layer.kind in ("conv", "linear"):
                assert layer.dram_cycles > 0
            else:
                assert layer.dram_cycles == 0

    def test_latency_us_consistent_with_cycles(self):
        config = AcceleratorConfig().with_clock(200.0)
        model = LatencyModel(config)
        net = small_net()
        assert model.latency_us(net) == pytest.approx(
            model.total_cycles(net) / 200.0)


class TestCycleFormulas:
    def test_conv_pass_cost_structure(self):
        net = small_net()
        spec = net.conv_layers()[0]  # padded: 14 rows
        cal = LatencyCalibration()
        cycles = conv_pass_cycles(spec, cal)
        assert cycles == 14 * (3 + cal.conv_row_overhead) \
            + cal.conv_channel_fill

    def test_conv_layer_scales_with_groups_and_t(self):
        net = small_net()
        spec = net.conv_layers()[1]
        config1 = AcceleratorConfig().with_units(1)
        config8 = AcceleratorConfig().with_units(8)
        assert compute_cycles(spec, config8, num_steps=3) < \
            compute_cycles(spec, config1, num_steps=3)
        t3 = compute_cycles(spec, config1, num_steps=3)
        t6 = compute_cycles(spec, config1, num_steps=6)
        cal = LatencyCalibration()
        assert t6 - cal.layer_setup == pytest.approx(
            2 * (t3 - cal.layer_setup))

    def test_pool_cycles_channel_serial(self):
        net = small_net()
        spec = net.pool_layers()[0]
        config = AcceleratorConfig()
        t = compute_cycles(spec, config, num_steps=2)
        cal = LatencyCalibration()
        per_channel = spec.in_shape[1] * (2 + cal.pool_row_overhead)
        expected = (spec.in_shape[0] * 2 * (per_channel
                                            + cal.pool_pass_setup)
                    + cal.layer_setup)
        assert t == expected

    def test_linear_cycles_block_structure(self):
        net = small_net()
        spec = net.linear_layers()[0]  # 128 -> 20
        config = AcceleratorConfig()  # 21 parallel outputs
        cal = LatencyCalibration()
        cycles = compute_cycles(spec, config, num_steps=1)
        blocks = -(-spec.out_features // 21)
        assert cycles == (blocks * (spec.in_features
                                    + cal.linear_block_flush)
                          + cal.linear_pass_setup) + cal.layer_setup

    def test_flatten_transfer_width(self):
        net = small_net()
        flatten = [l for l in net.layers if l.kind == "flatten"][0]
        config = AcceleratorConfig()
        cycles = flatten_cycles(flatten, config, num_steps=4)
        bits = flatten.out_features * 4
        assert cycles == -(-bits // config.memory.bram_width_bits)

    def test_dram_stream_rounding(self):
        config = AcceleratorConfig()
        base = config.memory.dram_burst_setup_cycles
        assert dram_stream_cycles(64, config) == 1 + base
        assert dram_stream_cycles(65, config) == 2 + base

    def test_custom_calibration_changes_costs(self):
        net = small_net()
        spec = net.conv_layers()[0]
        config = AcceleratorConfig()
        slow = LatencyCalibration(conv_row_overhead=50)
        default_cycles = compute_cycles(spec, config, num_steps=2)
        slow_cycles = compute_cycles(spec, config, num_steps=2, cal=slow)
        assert slow_cycles > default_cycles
