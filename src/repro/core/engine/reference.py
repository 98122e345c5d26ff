"""The reference backend: the bit- and cycle-faithful hardware model.

For each layer the engine reads the input spike train from the active
ping-pong bank, dispatches work to the processing units (convolution
rounds run all units concurrently; pooling and linear layers use their
single unit), writes the result to the opposite bank and swaps.  The
units charge their own cycles and memory traffic as their loops run,
from the calibrated per-row and per-pass constants; this engine adds
each layer's setup and charges DRAM weight streams before their layer
(the paper's off-chip option).  Nothing here reads the analytic closed
form (:func:`~repro.core.latency.layer_charges`) for a conv, pool or
linear layer: the tests hold the two equal, layer by layer.

This is the shift-register/adder-array model the repo was seeded with; it
simulates every register shift and adder operation, so it is slow —
batches run one image at a time.  Use the ``vectorized`` backend for
anything beyond a handful of images.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.compiler import CompiledModel
from repro.core.conv_unit import ConvUnit
from repro.core.engine.base import ExecutionEngine, register_engine
from repro.core.engine.trace import ExecutionTrace, LayerTrace
from repro.core.latency import (
    dram_stream_cycles,
    flatten_cycles,
    input_load_cycles,
)
from repro.core.linear_unit import LinearUnit
from repro.core.pingpong import BufferPair
from repro.core.pool_unit import PoolUnit
from repro.core.stats import UnitStats
from repro.encoding import radix
from repro.errors import ShapeError, SimulationError

__all__ = ["ReferenceEngine"]


@register_engine
class ReferenceEngine(ExecutionEngine):
    """Runs a compiled model on the functional unit models, per image."""

    name = "reference"

    def __init__(
        self,
        compiled: CompiledModel,
        calibration: LatencyCalibration = DEFAULT_LATENCY,
    ) -> None:
        super().__init__(compiled, calibration)
        config = compiled.config
        self.conv_units = [
            ConvUnit(config, unit_id=i, calibration=calibration)
            for i in range(config.num_conv_units)
        ]
        self.pool_unit = PoolUnit(config, calibration=calibration)
        self.linear_unit = LinearUnit(config, calibration=calibration)

    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, list[ExecutionTrace]]:
        """Infer a batch one image at a time through the unit models."""
        images = self._check_batch(images)
        logits_rows: list[np.ndarray] = []
        traces: list[ExecutionTrace] = []
        for image in images:
            logits, trace = self.run_image(image)
            logits_rows.append(logits)
            traces.append(trace)
        return np.stack(logits_rows), traces

    def run_image(self, image: np.ndarray) -> tuple[np.ndarray,
                                                    ExecutionTrace]:
        """Infer one image; returns (logits, execution trace).

        ``image`` is ``(C, H, W)`` in ``[0, 1]`` — the engine radix-
        encodes it, exactly as the host-side encoder feeds the FPGA.
        """
        network = self.compiled.network
        if image.shape != network.input_shape:
            raise ShapeError(
                f"expected image of shape {network.input_shape}, "
                f"got {image.shape}"
            )
        t = network.num_steps
        config = self.compiled.config
        ints = radix.quantize_real(image[np.newaxis], t)[0]
        bits = radix.encode_ints(ints, t).bits  # (T, C, H, W)

        buffers = BufferPair(
            capacity_2d_bits=max(self.compiled.bram.activation_2d_bits, 1),
            capacity_1d_bits=max(self.compiled.bram.activation_1d_bits, 1),
        )
        trace = ExecutionTrace()
        trace.input_cycles = input_load_cycles(
            network.input_shape, self.calibration, t)
        buffers.planar.prime(bits, bits_per_element=1)
        logits: np.ndarray | None = None

        for program in self.compiled.programs:
            spec = program.spec
            dram_cycles = 0
            streamed_bits = 0
            if (program.kind in ("conv", "linear")
                    and not program.weights_on_chip):
                streamed_bits = spec.num_weights * network.weight_bits
                dram_cycles = dram_stream_cycles(streamed_bits, config)
            if program.kind == "conv":
                stats, out_bits = self._run_conv(program, buffers, t)
                buffers.planar.write(out_bits, bits_per_element=1)
                buffers.planar.swap()
            elif program.kind == "pool":
                in_bits = buffers.planar.read()
                out_ints, stats = self.pool_unit.run_layer(spec, in_bits, t)
                out_bits = radix.encode_ints(out_ints, t).bits
                buffers.planar.write(out_bits, bits_per_element=1)
                buffers.planar.swap()
            elif program.kind == "flatten":
                in_bits = buffers.planar.read()  # (T, C, H, W)
                flat = in_bits.reshape(t, -1)
                buffers.flat.prime(flat, bits_per_element=1)
                stats = UnitStats(
                    cycles=flatten_cycles(spec, config, t))
                stats.traffic.activation_read_bits = int(flat.size)
                stats.traffic.activation_write_bits = int(flat.size)
            else:  # linear
                in_bits = buffers.flat.read()
                out, stats = self.linear_unit.run_layer(spec, in_bits, t)
                stats.cycles += self.calibration.layer_setup
                if spec.is_output:
                    logits = out
                else:
                    out_bits = radix.encode_ints(out, t).bits
                    buffers.flat.write(out_bits, bits_per_element=1)
                    buffers.flat.swap()
            if program.kind in ("conv", "pool"):
                stats.cycles += self.calibration.layer_setup
            stats.traffic.weight_stream_bits += streamed_bits
            trace.layers.append(LayerTrace(
                name=program.name, kind=program.kind, cycles=stats.cycles,
                dram_cycles=dram_cycles, adder_ops=stats.adder_ops,
                traffic=stats.traffic))
        if logits is None:
            raise SimulationError(
                "compiled model has no output linear layer")
        return logits, trace

    def _run_conv(self, program, buffers: BufferPair,
                  t: int) -> tuple[UnitStats, np.ndarray]:
        """Execute one conv layer's schedule over the parallel units."""
        spec = program.spec
        in_bits = buffers.planar.read()
        c_out, h_out, w_out = spec.out_shape
        out_ints = np.zeros(spec.out_shape, dtype=np.int64)
        stats = UnitStats()
        for round_assignment in program.conv_schedule.rounds:
            round_cycles = 0
            for unit, channels in zip(self.conv_units, round_assignment):
                activations, unit_stats = unit.run_pass(
                    spec, in_bits, list(channels), t)
                out_ints[list(channels)] = activations
                # Units in a round run concurrently: the round costs the
                # slowest unit; counters other than cycles accumulate.
                round_cycles = max(round_cycles, unit_stats.cycles)
                stats.adder_ops += unit_stats.adder_ops
                stats.accumulator_writes += unit_stats.accumulator_writes
                stats.traffic.merge(unit_stats.traffic)
            stats.cycles += round_cycles
        out_bits = radix.encode_ints(out_ints, t).bits
        return stats, out_bits
