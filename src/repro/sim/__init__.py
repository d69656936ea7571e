"""Cycle-accurate simulation of elaborated netlists."""

from .batch import (
    BatchCompiled,
    BatchSimulator,
    compile_batch,
    scalar_adapter,
)
from .compile import CompiledNetlist, compile_netlist
from .simulator import Simulator
from .vcd import VcdTracer

__all__ = [
    "Simulator",
    "VcdTracer",
    "CompiledNetlist",
    "compile_netlist",
    "BatchCompiled",
    "BatchSimulator",
    "compile_batch",
    "scalar_adapter",
]
