"""Cycle-accurate simulation of elaborated netlists."""

from .batch import BatchCompiled, compile_batch
from .compile import CompiledNetlist, compile_netlist
from .simulator import Simulator
from .vcd import VcdTracer

__all__ = [
    "Simulator",
    "VcdTracer",
    "CompiledNetlist",
    "compile_netlist",
    "BatchCompiled",
    "compile_batch",
]
