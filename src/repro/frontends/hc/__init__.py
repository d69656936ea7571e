"""Chisel-like hardware-construction frontend."""

from .designs import build_initial_kernel, build_opt_kernel, chisel_initial, chisel_opt
from .dsl import HcModule, Sig, lit, mux, select, transpose
from .idct import idct_col_hc, idct_row_hc

__all__ = [
    "HcModule",
    "Sig",
    "lit",
    "mux",
    "select",
    "transpose",
    "idct_row_hc",
    "idct_col_hc",
    "build_initial_kernel",
    "build_opt_kernel",
    "chisel_initial",
    "chisel_opt",
]
