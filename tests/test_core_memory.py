"""Tests for the memory system: ping-pong buffers, BRAM plan, DRAM model."""

import numpy as np
import pytest

from repro.core import AcceleratorConfig, BufferPair, plan_bram
from repro.core.config import MemoryConfig
from repro.core.latency import dram_stream_cycles
from repro.core.pingpong import PingPongBuffer
from repro.errors import CapacityError, SimulationError
from repro.models import performance_network, vgg11_performance_network


class TestPingPongBuffer:
    def test_write_then_swap_then_read(self):
        buf = PingPongBuffer("test", capacity_bits=1024)
        data = np.ones((4, 4), dtype=np.uint8)
        buf.write(data, bits_per_element=1)
        buf.swap()
        np.testing.assert_array_equal(buf.read(), data)

    def test_alternation(self):
        buf = PingPongBuffer("test", capacity_bits=1024)
        a = np.zeros(4, dtype=np.uint8)
        b = np.ones(4, dtype=np.uint8)
        buf.prime(a, 1)              # a readable
        buf.write(b, 1)              # layer output to other bank
        buf.swap()
        np.testing.assert_array_equal(buf.read(), b)
        assert buf.swaps == 2

    def test_read_before_any_write_raises(self):
        with pytest.raises(SimulationError):
            PingPongBuffer("test", 64).read()

    def test_capacity_enforced(self):
        buf = PingPongBuffer("test", capacity_bits=8)
        with pytest.raises(CapacityError):
            buf.write(np.ones(9, dtype=np.uint8), bits_per_element=1)

    def test_peak_tracking(self):
        buf = PingPongBuffer("test", capacity_bits=1024)
        buf.write(np.ones(10, dtype=np.uint8), 1)
        buf.swap()
        buf.write(np.ones(100, dtype=np.uint8), 1)
        assert buf.peak_bits == 100

    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            PingPongBuffer("bad", 0)


class TestBufferPair:
    def test_flatten_handoff(self):
        pair = BufferPair(1024, 1024)
        maps = np.arange(8, dtype=np.uint8).reshape(2, 2, 2) % 2
        pair.planar.prime(maps, 1)
        flat = pair.flatten_handoff(bits_per_element=1)
        assert flat.shape == (2, 4)
        np.testing.assert_array_equal(pair.flat.read(), flat)

    def test_total_peak(self):
        pair = BufferPair(1024, 1024)
        pair.planar.write(np.ones(16, dtype=np.uint8), 1)
        pair.flat.write(np.ones(4, dtype=np.uint8), 1)
        assert pair.total_peak_bits == 2 * (16 + 4)


class TestBramPlan:
    def _small_net(self, t=3):
        return performance_network(
            [("conv", 4, 3, 1, 0), ("pool", 2), ("flatten",),
             ("linear", 16), ("linear", 4)],
            input_shape=(1, 10, 10), num_steps=t)

    def test_bank_sized_to_largest_2d_tensor(self):
        net = self._small_net()
        plan = plan_bram(net, MemoryConfig(), weights_on_chip=True)
        # Largest 2-D tensor: conv output 4x8x8 = 256 elements, T=3 bits.
        assert plan.activation_2d_bits == 3 * 256

    def test_1d_bank_covers_linear_layers(self):
        net = self._small_net()
        plan = plan_bram(net, MemoryConfig(), weights_on_chip=True)
        assert plan.activation_1d_bits == 3 * 64  # flattened 4*4*4

    def test_weight_blocks_zero_when_streaming(self):
        net = self._small_net()
        plan = plan_bram(net, MemoryConfig(), weights_on_chip=False)
        assert plan.weight_blocks == 0
        plan_on = plan_bram(net, MemoryConfig(), weights_on_chip=True)
        assert plan_on.weight_blocks >= 1

    def test_scales_with_time_steps(self):
        small = plan_bram(self._small_net(3), MemoryConfig(), True)
        large = plan_bram(self._small_net(6), MemoryConfig(), True)
        assert large.activation_2d_bits == 2 * small.activation_2d_bits

    def test_vgg_needs_substantial_activation_memory(self):
        net = vgg11_performance_network(num_steps=6)
        plan = plan_bram(net, MemoryConfig(), weights_on_chip=False)
        # 64ch x 32x32 maps at 6 bits: ~0.4 Mbit per bank.
        assert plan.activation_2d_bits == 6 * 64 * 32 * 32
        assert plan.total_blocks > 20


class TestDramModel:
    """The DRAM weight-stream charge, ``dram_stream_cycles``."""

    @staticmethod
    def config(**memory):
        return AcceleratorConfig(memory=MemoryConfig(**memory))

    def test_transfer_cycles(self):
        config = self.config(dram_bandwidth_bits=64,
                             dram_burst_setup_cycles=10)
        assert dram_stream_cycles(640, config) == 640 // 64 + 10

    def test_rounds_partial_words_up(self):
        config = self.config(dram_bandwidth_bits=64,
                             dram_burst_setup_cycles=0)
        assert dram_stream_cycles(65, config) == 2

    def test_zero_bits_is_free(self):
        assert dram_stream_cycles(0, self.config()) == 0


class TestAcceleratorConfigValidation:
    def test_defaults_match_paper(self):
        config = AcceleratorConfig()
        assert config.conv_unit.columns == 30
        assert config.conv_unit.rows == 5
        assert config.pool_unit.columns == 14
        assert config.pool_unit.rows == 2
        assert config.clock_mhz == 100.0
        assert config.weight_bits == 3

    def test_with_units_and_clock(self):
        config = AcceleratorConfig().with_units(8).with_clock(200.0)
        assert config.num_conv_units == 8
        assert config.clock_mhz == 200.0
        assert config.cycle_time_us == pytest.approx(0.005)

    def test_for_network_sizes_from_geometry(self):
        net = vgg11_performance_network(num_steps=6)
        config = AcceleratorConfig.for_network(net, num_conv_units=8,
                                               clock_mhz=115.0)
        assert config.conv_unit.columns == 32  # widest conv output row
        assert config.conv_unit.rows == 3      # 3x3 kernels
        assert config.pool_unit.columns == 16  # widest pooled row

    def test_invalid_configs_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            AcceleratorConfig(num_conv_units=0)
        with pytest.raises(ConfigurationError):
            AcceleratorConfig(clock_mhz=0)
        with pytest.raises(ConfigurationError):
            AcceleratorConfig(weight_bits=1)

    def test_channels_per_unit_capacity(self):
        from repro.core.config import ConvUnitConfig
        from repro.errors import ConfigurationError
        unit = ConvUnitConfig(columns=30, rows=5)
        assert unit.channels_per_unit(out_width=30) == 1
        assert unit.channels_per_unit(out_width=10) == 3
        with pytest.raises(ConfigurationError):
            unit.channels_per_unit(out_width=31)
