"""Verilog-baseline frontend (the paper's hand-written reference flow)."""

from .designs import (
    build_initial_kernel,
    build_opt1_kernel,
    build_opt_kernel,
    verilog_initial,
    verilog_opt,
    verilog_opt1,
)
from .units import idct_col_unit, idct_row_unit

__all__ = [
    "idct_row_unit",
    "idct_col_unit",
    "build_initial_kernel",
    "build_opt1_kernel",
    "build_opt_kernel",
    "verilog_initial",
    "verilog_opt1",
    "verilog_opt",
]
