"""Compiler: maps a quantized network onto an accelerator configuration.

Produces a :class:`CompiledModel` — an ordered list of layer programs with
the output-channel schedule for the convolution units (which unit computes
which channels in which pass), the memory plan (weights on-chip vs DRAM,
buffer sizes) and validated capacity constraints.  The controller executes
this schedule; the latency model prices it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bram import BramPlan, plan_bram
from repro.core.config import AcceleratorConfig
from repro.core.gemm import GemmWeights
from repro.core.latency import channels_per_pass, layer_names
from repro.errors import CompilationError
from repro.snn.spec import QuantizedNetwork

__all__ = ["ConvSchedule", "LayerProgram", "CompiledModel", "compile_network"]


@dataclass(frozen=True)
class ConvSchedule:
    """The output-channel schedule of one convolution layer.

    ``rounds`` is a list of scheduling rounds; each round assigns to every
    active unit the list of channels it computes in one pass.  All units in
    a round run concurrently, rounds run back to back (this is the ``G``
    of the latency model).
    """

    channels_per_unit_pass: int
    rounds: tuple

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


@dataclass(frozen=True)
class LayerProgram:
    """One layer's execution descriptor."""

    index: int
    name: str
    kind: str                      # conv / pool / linear / flatten
    spec: object
    conv_schedule: ConvSchedule | None = None
    weights_on_chip: bool = True
    #: Conv/linear weights as an exact GEMM operand, shared by every
    #: engine that runs this compiled model (None for pool/flatten).
    gemm: GemmWeights | None = field(default=None, compare=False,
                                     repr=False)


@dataclass(frozen=True)
class CompiledModel:
    """A network bound to a configuration, ready to execute."""

    network: QuantizedNetwork
    config: AcceleratorConfig
    programs: tuple
    bram: BramPlan
    weights_on_chip: bool

    @property
    def num_layers(self) -> int:
        return len(self.programs)


def _schedule_conv(spec, config: AcceleratorConfig) -> ConvSchedule:
    """Round-robin channel groups over the available convolution units."""
    p = channels_per_pass(spec, config)
    c_out = spec.out_shape[0]
    groups = [list(range(lo, min(lo + p, c_out)))
              for lo in range(0, c_out, p)]
    rounds = []
    u = config.num_conv_units
    for start in range(0, len(groups), u):
        round_assignment = tuple(
            tuple(g) for g in groups[start:start + u])
        rounds.append(round_assignment)
    return ConvSchedule(channels_per_unit_pass=p, rounds=tuple(rounds))


def compile_network(
    network: QuantizedNetwork,
    config: AcceleratorConfig,
) -> CompiledModel:
    """Validate and schedule ``network`` for ``config``.

    Raises :class:`~repro.errors.CompilationError` when a layer cannot map
    (kernel taller than the adder array, rows wider than the units, or
    activations exceeding buffer capacity).
    """
    if network.weight_bits != config.weight_bits:
        raise CompilationError(
            f"network quantized to {network.weight_bits}-bit weights but "
            f"the accelerator is configured for {config.weight_bits}"
        )
    weight_bytes = network.parameter_bytes
    weights_on_chip = (
        weight_bytes <= config.memory.onchip_weight_capacity)

    programs: list[LayerProgram] = []
    for i, (spec, name) in enumerate(zip(network.layers,
                                         layer_names(network))):
        if spec.kind == "conv":
            kr, kc = spec.kernel_size
            if kr > config.conv_unit.rows:
                raise CompilationError(
                    f"{name}: kernel of {kr} rows exceeds the "
                    f"unit's {config.conv_unit.rows} adder rows"
                )
            schedule = _schedule_conv(spec, config)
            # Tap-major (C_out, kr, kc, C_in): the column order of the
            # engines' channel-last patch matrix.
            programs.append(LayerProgram(
                index=i, name=name, kind="conv", spec=spec,
                conv_schedule=schedule, weights_on_chip=weights_on_chip,
                gemm=GemmWeights(spec.weights.transpose(0, 2, 3, 1),
                                 network.num_steps)))
        elif spec.kind == "pool":
            if spec.size > config.pool_unit.rows:
                raise CompilationError(
                    f"{name}: window of {spec.size} rows exceeds "
                    f"the pool unit's {config.pool_unit.rows} adder rows"
                )
            if spec.out_shape[2] > config.pool_unit.columns:
                raise CompilationError(
                    f"{name}: pooled rows of width "
                    f"{spec.out_shape[2]} exceed the pool unit's "
                    f"{config.pool_unit.columns} columns"
                )
            programs.append(LayerProgram(
                index=i, name=name, kind="pool", spec=spec))
        elif spec.kind == "flatten":
            programs.append(LayerProgram(
                index=i, name=name, kind="flatten", spec=spec))
        else:
            programs.append(LayerProgram(
                index=i, name=name, kind="linear", spec=spec,
                weights_on_chip=weights_on_chip,
                gemm=GemmWeights(spec.weights, network.num_steps)))

    bram = plan_bram(network, config.memory, weights_on_chip)
    activation_bits = max(bram.activation_2d_bits, bram.activation_1d_bits)
    if activation_bits > config.memory.activation_capacity * 8:
        raise CompilationError(
            f"activations need {activation_bits} bits per bank, exceeding "
            f"the configured {config.memory.activation_capacity * 8}"
        )
    return CompiledModel(
        network=network, config=config, programs=tuple(programs),
        bram=bram, weights_on_chip=weights_on_chip)
