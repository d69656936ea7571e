"""Mini-C HLS frontend: parser, scheduler, FSM codegen, tool personalities."""

from .compiler import Compiler, HlsOptions, HlsResult
from .interface import build_axis_top, build_function_top
from .lexer import tokenize
from .parser import parse, parse_pragma
from .tools import (
    BambuConfig,
    bambu_design,
    bambu_initial,
    bambu_opt,
    bambu_sweep,
    load_source,
    vivado_design,
    vivado_initial,
    vivado_opt,
)
from .transform import inline_program, unroll_loop

__all__ = [
    "tokenize",
    "parse",
    "parse_pragma",
    "inline_program",
    "unroll_loop",
    "Compiler",
    "HlsOptions",
    "HlsResult",
    "build_axis_top",
    "build_function_top",
    "load_source",
    "BambuConfig",
    "bambu_design",
    "bambu_sweep",
    "bambu_initial",
    "bambu_opt",
    "vivado_design",
    "vivado_initial",
    "vivado_opt",
]
