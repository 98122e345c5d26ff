"""Calibration constants for the latency / power / resource models.

The paper specifies the architecture's *behaviour* exactly (Fig. 2, Alg. 1)
but not the cycle-level cost of its memory interfaces, nor Vivado's mapping
of units to LUTs/FFs, nor the FPGA's power breakdown.  Those are captured
here as a small set of constants, fitted once against the paper's published
anchor points and then frozen.

Latency — fitted to Table II (LeNet-5, T=3, 100 MHz, U = 1/2/4/8 →
1063/648/450/370 µs) together with the channel-packing rule of
``repro.core.latency`` (output channels share a unit when whole *input*
rows fit the shift register side by side).  The frozen constants reproduce
the four Table II points to +0.8% / −0.01% / +0.6% / −8.2% and Table I's
latency-vs-T line to within 4% (slope error 0.2%).  Applied unchanged to
the Table III deployments they are much further off: the model's
latency is −0.5% from the paper on LeNet-5, −30.3% on VGG-11 and +132%
on CNN 2 (the Fang-CNN row).  Regenerate the paper-vs-model table with
``ExperimentRunner().run_table3(include_vgg=True)`` from
:mod:`repro.harness.experiments`.

Power — fitted to Table II (3.07/3.09/3.17/3.28 W), cross-checked against
Table III (3.4/3.6 W @200 MHz; 4.9 W @115 MHz with DRAM):
``P = STATIC + (f/100MHz)·(BASE + UNIT·U + BRAM·Mbit) + DRAM_IF``.

Resources — fitted to Table II (LUT 11k/15k/24k/42k, FF 10k/14k/23k/39k):
bottom-up per-unit adder/register/mux counts plus a fixed base
(controller, pooling unit, linear unit, buffer addressing) and a small
superlinear interconnect term.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LatencyCalibration", "PowerCalibration", "ResourceCalibration",
           "DEFAULT_LATENCY", "DEFAULT_POWER", "DEFAULT_RESOURCES"]


@dataclass(frozen=True)
class LatencyCalibration:
    """Cycle-cost constants for the analytic latency model."""

    # Non-overlapped cycles per convolution row pass on top of the Kc
    # shift cycles (row fetch handshake, kernel-row load, write-back).
    conv_row_overhead: int = 6
    # Pipeline fill when a new input channel enters the adder array.
    conv_channel_fill: int = 5
    # Per (channel-group, time-step) sequencing cost of a conv layer.
    conv_pass_setup: int = 12
    # Pooling unit per-row overhead (narrower register, two rows loaded in
    # parallel, but value-width write-back).
    pool_row_overhead: int = 13
    pool_pass_setup: int = 8
    # Linear unit: one weight word per cycle; switching output blocks
    # flushes the adder row.
    linear_block_flush: int = 8
    linear_pass_setup: int = 12
    # Controller reconfiguration between layers.
    layer_setup: int = 200
    # Loading one input-image row into the ping-pong buffer, per step.
    input_row_load: int = 6


@dataclass(frozen=True)
class PowerCalibration:
    """Watt-level constants for the power model (Virtex UltraScale+)."""

    static_w: float = 2.80           # device static + clocking overhead
    base_dynamic_w: float = 0.233    # controller/buffers/units base @100MHz
    conv_unit_dynamic_w: float = 0.0305  # per conv unit @100MHz
    bram_dynamic_w_per_mbit: float = 0.010
    dram_interface_w: float = 1.20   # MIG + IO when DRAM streaming is on
    reference_clock_mhz: float = 100.0


@dataclass(frozen=True)
class ResourceCalibration:
    """LUT/FF cost constants for the resource model."""

    # One adder bit maps to ~1 LUT (carry logic) and ~1 FF (pipeline reg).
    luts_per_adder_bit: float = 1.0
    ffs_per_adder_bit: float = 1.0
    # The spike/zero multiplexer per adder column input.
    luts_per_mux: float = 3.0
    # Kernel-value registers per adder (weight_bits wide).
    ffs_per_kernel_bit: float = 1.0
    # Output-logic accumulator per column (add + shift + saturate).
    luts_per_output_bit: float = 1.0
    ffs_per_output_bit: float = 1.0
    # Per-unit control FSM.
    unit_control_luts: int = 300
    unit_control_ffs: int = 250
    # Fixed base: controller, buffer addressing, DMA, linear unit frame.
    base_luts: int = 5200
    base_ffs: int = 4600
    # Interconnect/arbitration growth with unit count (superlinear).
    interconnect_luts_per_unit_sq: float = 30.0
    interconnect_ffs_per_unit_sq: float = 20.0
    # DRAM memory controller, instantiated only when weights stream.
    dram_controller_luts: int = 9000
    dram_controller_ffs: int = 10000


DEFAULT_LATENCY = LatencyCalibration()
DEFAULT_POWER = PowerCalibration()
DEFAULT_RESOURCES = ResourceCalibration()
