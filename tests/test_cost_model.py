"""The per-layer cost model: one closed form, priced two ways.

``LatencyModel`` prices a network from its layer specs without compiling
it; the engines charge every image from a compiled model.  Both must
give the same cycles, so the paper-comparison rows and the perfbench
``sim_*`` figures cannot drift apart:

* the golden totals of the two benchmark deployments are pinned here,
  through ``LatencyModel`` and through a ``vectorized`` engine's trace;
* per layer, the analytic breakdown, and the closed form's cycle and
  traffic charges, equal what the ``reference`` engine's unit models
  charge while simulating every register shift, over the equivalence
  suite's layer stacks, with weights on chip and streamed from DRAM.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DEFAULT_LATENCY, AcceleratorConfig, LatencyModel
from repro.core.compiler import compile_network
from repro.core.config import MemoryConfig
from repro.core.engine import create_engine
from repro.core.latency import conv_group_count, layer_charges
from repro.models import performance_network, vgg11_performance_network

from test_engine_equivalence import LAYER_STACKS

#: LeNet-5 "32x32x1 - 6C5 - P2 - 16C5 - P2 - 120C5 - 120 - 84 - 10".
LENET5_LAYERS = [("conv", 6, 5, 1, 0), ("pool", 2), ("conv", 16, 5, 1, 0),
                 ("pool", 2), ("conv", 120, 5, 1, 0), ("flatten",),
                 ("linear", 120), ("linear", 84), ("linear", 10)]


def lenet5_deployment():
    """LeNet-5 (T=4) on 4 units at 200 MHz, weights on chip."""
    network = performance_network(LENET5_LAYERS, (1, 32, 32), num_steps=4)
    return network, AcceleratorConfig().with_units(4).with_clock(200.0)


def vgg11_deployment():
    """Full VGG-11 (T=6) on 8 units at 115 MHz, weights in DRAM."""
    network = vgg11_performance_network(6)
    return network, AcceleratorConfig.for_network(
        network, num_conv_units=8, clock_mhz=115.0)


class TestGoldenCycles:
    """Cycle totals of the benchmark deployments, fixed to the cycle."""

    @pytest.mark.parametrize("deployment, on_chip, cycles, dram, us", [
        (lenet5_deployment, True, 58_518, 0, 292.59),
        (vgg11_deployment, False, 16_838_783, 1_336_369, 146_424.2),
    ], ids=["lenet5", "vgg11"])
    def test_analytic_and_engine_totals(self, deployment, on_chip, cycles,
                                        dram, us):
        network, config = deployment()
        compiled = compile_network(network, config)
        assert compiled.weights_on_chip is on_chip

        model = LatencyModel(config)
        layers = model.layer_latencies(network, on_chip)
        assert model.total_cycles(network, on_chip) == cycles
        assert sum(layer.dram_cycles for layer in layers) == dram
        assert model.latency_us(network, on_chip) == pytest.approx(
            us, abs=1e-6)

        engine = create_engine("vectorized", compiled)
        _, batch = engine.run_merged(np.zeros((1,) + network.input_shape))
        merged = batch.merged()
        assert merged.total_cycles == cycles
        assert int(merged.column("dram_cycles").sum()) == dram


class TestAnalyticMatchesSimulation:
    """Per layer, the closed form equals the unit models' own loops."""

    @pytest.mark.parametrize("on_chip", [True, False],
                             ids=["onchip", "dram"])
    @pytest.mark.parametrize("units", [1, 2, 3])
    @pytest.mark.parametrize("num_steps", [3, 5])
    @pytest.mark.parametrize("stack", sorted(LAYER_STACKS))
    def test_layer_cycles_equal_reference_trace(self, stack, num_steps,
                                                units, on_chip):
        network = performance_network(
            LAYER_STACKS[stack], input_shape=(1, 10, 10),
            num_steps=num_steps, seed=7)
        config = AcceleratorConfig.for_network(network,
                                               num_conv_units=units)
        if not on_chip:
            config = replace(config,
                             memory=MemoryConfig(onchip_weight_capacity=1))
        compiled = compile_network(network, config)
        assert compiled.weights_on_chip is on_chip
        # ceil(ceil(C / p) / U) = ceil(C / (p U)): the closed form's
        # rounds are the compiled schedule's.
        for program in compiled.programs:
            if program.kind == "conv":
                assert conv_group_count(program.spec, config) \
                    == program.conv_schedule.num_rounds

        image = np.random.default_rng(num_steps).random(network.input_shape)
        _, trace = create_engine("reference", compiled).run_image(image)
        analytic = LatencyModel(config).layer_latencies(network, on_chip)

        assert analytic[0].compute_cycles == trace.input_cycles
        assert [(l.name, l.compute_cycles, l.dram_cycles)
                for l in analytic[1:]] == [
            (l.name, l.cycles, l.dram_cycles) for l in trace.layers]
        assert any(l.dram_cycles for l in trace.layers) is not on_chip
        # The closed form's traffic columns match the simulation too.
        assert [list(layer_charges(spec, config, DEFAULT_LATENCY, num_steps,
                                   network.weight_bits, on_chip))
                for spec in network.layers] == [
            l.charges() for l in trace.layers]
