"""The paper's core contribution: the accelerator model.

Functional side (bit-exact): ``ConvUnit`` / ``PoolUnit`` / ``LinearUnit``
driven by ``Controller`` over ping-pong buffers.  Analytic side:
``LatencyModel`` / ``PowerModel`` / ``ResourceModel`` calibrated against
the paper's published numbers.  ``Accelerator`` ties both together.
"""

from repro.core.accelerator import Accelerator
from repro.core.adder_array import AdderArray
from repro.core.bram import BramPlan, plan_bram
from repro.core.calibration import (
    DEFAULT_LATENCY,
    DEFAULT_POWER,
    DEFAULT_RESOURCES,
    LatencyCalibration,
    PowerCalibration,
    ResourceCalibration,
)
from repro.core.compiler import (
    CompiledModel,
    ConvSchedule,
    LayerProgram,
    compile_network,
)
from repro.core.config import (
    AcceleratorConfig,
    ConvUnitConfig,
    LinearUnitConfig,
    MemoryConfig,
    PoolUnitConfig,
)
from repro.core.controller import (
    Controller,
    ExecutionTrace,
    LayerTrace,
    TraceMerge,
)
from repro.core.conv_unit import ConvUnit
from repro.core.engine import (
    ExecutionEngine,
    ReferenceEngine,
    VectorizedEngine,
    available_backends,
    clear_engine_cache,
    create_engine,
    engine_cache_stats,
    register_engine,
    warm_compile,
    warm_engine,
)
from repro.core.energy import EnergyBreakdown, EnergyConstants, trace_energy
from repro.core.isa import (
    Instruction,
    Opcode,
    assemble,
    decode,
    disassemble,
    encode,
)
from repro.core.latency import (
    LatencyModel,
    LayerLatency,
    channels_per_pass,
    conv_group_count,
    layer_charges,
)
from repro.core.linear_unit import LinearUnit
from repro.core.output_logic import OutputAccumulator
from repro.core.pingpong import BufferPair, PingPongBuffer
from repro.core.pool_unit import PoolUnit
from repro.core.power import PowerModel
from repro.core.report import PerformanceReport
from repro.core.resources import ResourceEstimate, ResourceModel
from repro.core.shift_register import InputShiftRegister
from repro.core.stats import MemoryTraffic, UnitStats

__all__ = [
    "Accelerator",
    "AcceleratorConfig",
    "AdderArray",
    "BramPlan",
    "BufferPair",
    "CompiledModel",
    "Controller",
    "ConvSchedule",
    "ConvUnit",
    "ConvUnitConfig",
    "DEFAULT_LATENCY",
    "DEFAULT_POWER",
    "DEFAULT_RESOURCES",
    "EnergyBreakdown",
    "EnergyConstants",
    "ExecutionEngine",
    "ExecutionTrace",
    "Instruction",
    "Opcode",
    "InputShiftRegister",
    "LatencyCalibration",
    "LatencyModel",
    "LayerLatency",
    "LayerProgram",
    "LayerTrace",
    "LinearUnit",
    "LinearUnitConfig",
    "MemoryConfig",
    "MemoryTraffic",
    "OutputAccumulator",
    "PerformanceReport",
    "PingPongBuffer",
    "PoolUnit",
    "PoolUnitConfig",
    "PowerCalibration",
    "PowerModel",
    "ReferenceEngine",
    "ResourceCalibration",
    "ResourceEstimate",
    "ResourceModel",
    "TraceMerge",
    "UnitStats",
    "VectorizedEngine",
    "assemble",
    "available_backends",
    "channels_per_pass",
    "clear_engine_cache",
    "compile_network",
    "create_engine",
    "engine_cache_stats",
    "conv_group_count",
    "decode",
    "disassemble",
    "encode",
    "layer_charges",
    "plan_bram",
    "register_engine",
    "trace_energy",
    "warm_compile",
    "warm_engine",
]
