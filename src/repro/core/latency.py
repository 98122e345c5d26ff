"""Analytic latency model: per-layer cycle counts from Alg. 1's loop
hierarchy.

The loop structure fixes the cycle count almost completely:

* convolution — ``G`` output-channel groups (see :func:`channels_per_pass`)
  × ``T`` time steps × ``C_in`` input channels × one pass of the padded
  input rows through the adder array, each row costing its ``Kc`` shifts
  plus a calibrated overhead (``repro.core.calibration``);
* pooling — channel-serial on the single pooling unit, one pass of the
  input rows per (step, channel);
* linear — weight-fetch bound: one weight word per cycle, ``T × blocks ×
  N_in`` with ``blocks = ceil(N_out / parallel_outputs)``;
* flatten — a buffer-to-buffer burst of the spike bits;
* DRAM layers — weights stream *before* the layer computes (the paper's
  second memory option), adding non-overlapped transfer cycles.

Channel packing: several output channels share one unit when whole input
rows fit the shift register side by side (``p = floor(R / W_in)`` with
``R = X + Kc − 1``), capped so the packed output rows fit the adder
columns.  This reproduces the paper's "multiple output channels can share
a single convolution unit, if their size permits" and is what lets the
120-channel 1×1-output LeNet layer and VGG-11's narrow deep layers run in
reasonable time.

One closed form prices every layer: :func:`layer_charges` returns a
layer's cycles, DRAM stream cycles and memory traffic.
:class:`LatencyModel` reads it from the layer specs, with no compiled
program, and the ``vectorized`` and ``sparse`` engines build their
per-layer charge table from it.  The ``reference`` engine's unit models
charge their own loops instead, one register shift at a time; the tests
hold those charges equal to this closed form layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.calibration import DEFAULT_LATENCY, LatencyCalibration
from repro.core.config import AcceleratorConfig
from repro.core.stats import MemoryTraffic
from repro.errors import CompilationError
from repro.snn.spec import (
    FlattenSpec,
    LayerSpec,
    QuantConvSpec,
    QuantizedNetwork,
)

__all__ = [
    "CHARGE_COLUMNS",
    "channels_per_pass",
    "conv_group_count",
    "conv_pass_cycles",
    "flatten_cycles",
    "input_load_cycles",
    "dram_stream_cycles",
    "layer_charges",
    "layer_names",
    "LatencyModel",
    "LayerLatency",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def channels_per_pass(spec: QuantConvSpec,
                      config: AcceleratorConfig) -> int:
    """Output channels one unit computes simultaneously (channel packing).

    The shift register spans ``R = X + Kc − 1`` positions; ``p`` whole
    padded input rows fit side by side, each feeding a slot of ``W_out``
    adder columns.  The packed slots must also fit the ``X`` columns.
    """
    kr, kc = spec.kernel_size
    _, h_out, w_out = spec.out_shape
    _, _, w_in = spec.in_shape
    w_padded = w_in + 2 * spec.padding
    register_length = config.conv_unit.columns + kc - 1
    if w_out > config.conv_unit.columns:
        raise CompilationError(
            f"conv output rows of width {w_out} exceed the unit's "
            f"{config.conv_unit.columns} columns; the design does not tile "
            "feature maps — configure a wider unit"
        )
    by_register = max(register_length // w_padded, 1)
    by_columns = max(config.conv_unit.columns // w_out, 1)
    return min(by_register, by_columns, spec.out_shape[0])


def conv_group_count(spec: QuantConvSpec, config: AcceleratorConfig) -> int:
    """Sequential output-channel groups ``G = ceil(C_out / (U · p))``."""
    p = channels_per_pass(spec, config)
    return _ceil_div(spec.out_shape[0], config.num_conv_units * p)


def conv_pass_cycles(
    spec: QuantConvSpec,
    cal: LatencyCalibration = DEFAULT_LATENCY,
) -> int:
    """Cycles for one (group, time-step, input-channel) row sweep."""
    kr, kc = spec.kernel_size
    _, h_in, _ = spec.in_shape
    h_padded = h_in + 2 * spec.padding
    return h_padded * (kc + cal.conv_row_overhead) + cal.conv_channel_fill


def flatten_cycles(
    spec: FlattenSpec,
    config: AcceleratorConfig,
    num_steps: int,
) -> int:
    """2-D → 1-D buffer transfer: a burst of the spike-train bits."""
    bits = spec.out_features * num_steps
    return _ceil_div(bits, config.memory.bram_width_bits)


def input_load_cycles(
    input_shape: tuple[int, int, int],
    cal: LatencyCalibration,
    num_steps: int,
) -> int:
    """Loading the encoded input image into the ping-pong buffer."""
    c, h, w = input_shape
    return c * h * num_steps * cal.input_row_load


def dram_stream_cycles(param_bits: int, config: AcceleratorConfig) -> int:
    """Streaming one layer's parameters from DRAM before computing it.

    Nothing to stream costs nothing: no burst is set up for zero bits.
    """
    if not param_bits:
        return 0
    transfer = _ceil_div(param_bits, config.memory.dram_bandwidth_bits)
    return transfer + config.memory.dram_burst_setup_cycles


#: One layer's per-image charges, in :func:`layer_charges` order: compute
#: cycles, DRAM stream cycles, then the
#: :class:`~repro.core.stats.MemoryTraffic` counters.
CHARGE_COLUMNS = ("cycles", "dram_cycles") + tuple(
    f.name for f in fields(MemoryTraffic))


def layer_charges(
    spec: LayerSpec,
    config: AcceleratorConfig,
    calibration: LatencyCalibration,
    num_steps: int,
    weight_bits: int,
    weights_on_chip: bool,
) -> tuple[int, ...]:
    """One layer's per-image charges, in :data:`CHARGE_COLUMNS` order.

    The closed forms of what the reference engine's unit models charge
    loop by loop.  The units sweep every plane whether or not it spikes,
    so none of these depend on the data.
    """
    cal = calibration
    t = num_steps
    kernel_reads = 0
    if spec.kind == "conv":
        c_in, h_in, w_in = spec.in_shape
        c_out, h_out, w_out = spec.out_shape
        h_padded = h_in + 2 * spec.padding
        # Every unit pass sweeps all padded rows of every input channel
        # at every step; rounds of concurrent passes run back to back.
        per_round = t * (c_in * conv_pass_cycles(spec, cal)
                         + cal.conv_pass_setup)
        cycles = conv_group_count(spec, config) * per_round + cal.layer_setup
        passes = _ceil_div(c_out, channels_per_pass(spec, config))
        reads = passes * t * c_in * h_padded * w_in
        writes = t * c_out * h_out * w_out
        kernel_reads = t * c_in * h_padded * spec.kernel_size[0] * c_out
    elif spec.kind == "pool":
        c, h_in, w_in = spec.in_shape
        _, h_out, w_out = spec.out_shape
        if w_out > config.pool_unit.columns:
            raise CompilationError(
                f"pooled rows of width {w_out} exceed the pool unit's "
                f"{config.pool_unit.columns} columns"
            )
        # Channel-serial on the single unit: one pass of the input rows
        # per (step, channel).
        cycles = (t * c * (h_in * (spec.size + cal.pool_row_overhead)
                           + cal.pool_pass_setup)
                  + cal.layer_setup)
        reads = t * c * h_in * w_in
        writes = t * c * h_out * w_out
    elif spec.kind == "flatten":
        cycles = flatten_cycles(spec, config, t)
        reads = writes = t * spec.out_features
    else:  # linear: one weight word per cycle per output block
        blocks = _ceil_div(spec.out_features,
                           config.linear_unit.parallel_outputs)
        cycles = (t * (blocks * (spec.in_features + cal.linear_block_flush)
                       + cal.linear_pass_setup)
                  + cal.layer_setup)
        reads = t * spec.in_features
        writes = t * spec.out_features
        kernel_reads = t * spec.in_features * spec.out_features
    streamed_bits = 0
    if spec.kind in ("conv", "linear") and not weights_on_chip:
        streamed_bits = spec.num_weights * weight_bits
    return (cycles, dram_stream_cycles(streamed_bits, config), reads,
            writes, kernel_reads, streamed_bits)


def layer_names(network: QuantizedNetwork) -> list[str]:
    """Each layer's name: ``conv1``, ``pool1``, ``flatten``, ``fc1``, …"""
    prefixes = {"conv": "conv", "pool": "pool", "linear": "fc"}
    counts = dict.fromkeys(prefixes, 0)
    names = []
    for spec in network.layers:
        if spec.kind == "flatten":
            names.append("flatten")
        else:
            counts[spec.kind] += 1
            names.append(f"{prefixes[spec.kind]}{counts[spec.kind]}")
    return names


@dataclass(frozen=True)
class LayerLatency:
    """Cycle breakdown for one layer."""

    name: str
    kind: str
    compute_cycles: int
    dram_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.dram_cycles


class LatencyModel:
    """Whole-network latency estimation for a given configuration."""

    def __init__(
        self,
        config: AcceleratorConfig,
        calibration: LatencyCalibration = DEFAULT_LATENCY,
    ) -> None:
        self.config = config
        self.calibration = calibration

    def layer_latencies(
        self,
        network: QuantizedNetwork,
        weights_on_chip: bool = True,
    ) -> list[LayerLatency]:
        """Per-layer cycle breakdown for one inference."""
        t = network.num_steps
        out = [LayerLatency(
            name="input", kind="input",
            compute_cycles=input_load_cycles(network.input_shape,
                                             self.calibration, t),
            dram_cycles=0,
        )]
        for spec, name in zip(network.layers, layer_names(network)):
            cycles, dram, *_ = layer_charges(
                spec, self.config, self.calibration, t,
                network.weight_bits, weights_on_chip)
            out.append(LayerLatency(name=name, kind=spec.kind,
                                    compute_cycles=cycles, dram_cycles=dram))
        return out

    def total_cycles(self, network: QuantizedNetwork,
                     weights_on_chip: bool = True) -> int:
        """Cycles for one full inference."""
        return sum(l.total_cycles
                   for l in self.layer_latencies(network, weights_on_chip))

    def latency_us(self, network: QuantizedNetwork,
                   weights_on_chip: bool = True) -> float:
        """End-to-end latency in microseconds at the configured clock."""
        return (self.total_cycles(network, weights_on_chip)
                * self.config.cycle_time_us)

    def throughput_fps(self, network: QuantizedNetwork,
                       weights_on_chip: bool = True) -> float:
        """Frames per second (single-frame, non-pipelined, as the paper)."""
        return 1e6 / self.latency_us(network, weights_on_chip)
