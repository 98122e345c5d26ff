"""Functional model of one convolution unit (Fig. 2).

``run_pass`` executes Alg. 1 for a group of output channels assigned to
this unit: the full (time step → input channel → row → shift) loop nest on
real spike data, through the input shift register, the ``Y × X`` adder
array and the output accumulator.  The result is bit-exact against the
reference integer semantics — the tests enforce this for random layers.
Cycles and memory traffic are charged as the loops run: each
(step, input channel) row sweep costs
:func:`~repro.core.latency.conv_pass_cycles` and each step a pass setup.
The analytic model prices the whole layer in one closed form
(:func:`~repro.core.latency.layer_charges`); the tests hold the two
equal.

Channel packing: when several whole input rows fit the shift register
(``repro.core.latency.channels_per_pass``), a pass computes that many
output channels at once; slot ``s`` of the register carries a copy of the
input row at offset ``s · W_in`` and feeds the adder-column slot of its
channel.
"""

from __future__ import annotations

import numpy as np

from repro.core.adder_array import AdderArray
from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.config import AcceleratorConfig
from repro.core.latency import channels_per_pass, conv_pass_cycles
from repro.core.output_logic import OutputAccumulator
from repro.core.shift_register import InputShiftRegister
from repro.core.stats import UnitStats
from repro.errors import ShapeError, SimulationError
from repro.snn.spec import QuantConvSpec

__all__ = ["ConvUnit"]


class ConvUnit:
    """One convolution unit: shift register + adder array + output logic."""

    def __init__(
        self,
        config: AcceleratorConfig,
        unit_id: int = 0,
        calibration: LatencyCalibration = DEFAULT_LATENCY,
    ) -> None:
        self.config = config
        self.unit_id = unit_id
        self.calibration = calibration

    def run_pass(
        self,
        spec: QuantConvSpec,
        input_bits: np.ndarray,
        channels: list[int],
        num_steps: int,
    ) -> tuple[np.ndarray, UnitStats]:
        """Compute ``channels`` of one conv layer from an input spike train.

        Parameters
        ----------
        spec:
            The quantized layer.
        input_bits:
            ``uint8`` spike tensor of shape ``(T, C_in, H, W)``.
        channels:
            Output-channel indices computed in this pass; must not exceed
            the unit's packing capacity.

        Returns
        -------
        ``(activations, stats)`` where ``activations`` is the requantized
        ``T``-bit integer tensor ``(len(channels), H_out, W_out)``.
        """
        kr, kc = spec.kernel_size
        c_in, h_in, w_in = spec.in_shape
        _, h_out, w_out = spec.out_shape
        t_steps, c_bits, h_bits, w_bits = input_bits.shape
        if (c_bits, h_bits, w_bits) != spec.in_shape or t_steps != num_steps:
            raise ShapeError(
                f"input bits {input_bits.shape} do not match layer input "
                f"(T={num_steps}, {spec.in_shape})"
            )
        capacity = channels_per_pass(spec, self.config)
        if not channels:
            raise SimulationError("a pass needs at least one channel")
        if len(channels) > capacity:
            raise SimulationError(
                f"{len(channels)} channels exceed the unit's packing "
                f"capacity of {capacity}"
            )
        if kr > self.config.conv_unit.rows:
            raise SimulationError(
                f"kernel of {kr} rows exceeds the unit's "
                f"{self.config.conv_unit.rows} adder rows"
            )

        pad = spec.padding
        w_padded = w_in + 2 * pad
        h_padded = h_in + 2 * pad
        n_slots = len(channels)
        # The register spans the whole (replicated) input row; strided
        # layers may need more reach than the nominal X + Kc - 1.
        register_length = max(
            self.config.conv_unit.columns + kc - 1,
            n_slots * w_padded,
            (w_out - 1) * spec.stride + kc,
        )
        register = InputShiftRegister(register_length)
        array = AdderArray(self.config.conv_unit.columns, kr)
        acc = OutputAccumulator(n_slots, h_out, w_out)
        stats = UnitStats()

        # Tap index per adder column: slot s, output position w reads
        # register position s*W_padded + w*stride + (current shift).
        tap_base = np.concatenate([
            s * w_padded + np.arange(w_out) * spec.stride
            for s in range(n_slots)
        ])
        used_columns = n_slots * w_out
        # Kernel value per (adder row, column) for each kernel column j:
        # every column of slot s carries channel ch_s's value.
        kernel_planes = np.zeros(
            (kc, kr, self.config.conv_unit.columns), dtype=np.int64)

        for step in range(num_steps):
            acc.begin_time_step()
            for cin in range(c_in):
                for j in range(kc):
                    per_channel = spec.weights[channels][:, cin, :, j]
                    col = np.repeat(per_channel, w_out, axis=0).T
                    kernel_planes[j, :, :used_columns] = col
                array.reset()
                plane = input_bits[step, cin]
                for row in range(h_padded):
                    src = row - pad
                    padded_row = np.zeros(w_padded, dtype=np.uint8)
                    if 0 <= src < h_in:
                        padded_row[pad:pad + w_in] = plane[src]
                    replicated = np.tile(padded_row, n_slots)
                    register.load_row(replicated)
                    for j in range(kc):
                        taps = np.zeros(self.config.conv_unit.columns,
                                        dtype=np.uint8)
                        taps[:used_columns] = register.bits[tap_base + j]
                        array.step(taps, kernel_planes[j])
                    completed = array.advance()
                    out_row = row - (kr - 1)
                    if out_row >= 0 and out_row % spec.stride == 0:
                        out_row //= spec.stride
                        if out_row < h_out:
                            for s in range(n_slots):
                                acc.add_row(
                                    s, out_row,
                                    completed[s * w_out:(s + 1) * w_out])
                    stats.traffic.activation_read_bits += w_in
                    stats.traffic.kernel_read_values += kr * n_slots
                stats.cycles += conv_pass_cycles(spec, self.calibration)
            stats.cycles += self.calibration.conv_pass_setup
        stats.adder_ops = array.adder_ops
        stats.accumulator_writes = acc.writes
        activations = acc.finalize(
            spec.bias[channels], spec.scales[channels], num_steps)
        stats.traffic.activation_write_bits = int(
            activations.size * num_steps)
        return activations, stats
