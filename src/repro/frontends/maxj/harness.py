"""Simulation harness for MaxJ kernels (stream-per-tick, no AXI)."""

from __future__ import annotations

from typing import Sequence

from ...core.bits import to_signed, to_unsigned
from ...obs import trace as obs_trace
from ...rtl import Netlist
from ...sim import Simulator
from ..base import Design
from .designs import COLS, ELEM_W, ROWS

__all__ = ["run_matrix_kernel", "run_row_kernel", "verify_maxj"]


def _pack(values: Sequence[int]) -> int:
    word = 0
    for i, value in enumerate(values):
        word |= to_unsigned(value, ELEM_W) << (i * ELEM_W)
    return word


def _unpack(word: int, count: int) -> list[int]:
    return [to_signed((word >> (i * ELEM_W)) & 0xFFFF, ELEM_W) for i in range(count)]


def _stream(design: Design, netlist: Netlist | None, n_matrices: int,
            in_port: str, words: Sequence[int], out_port: str,
            count: int) -> list[list[int]]:
    """Poke one word of ``words`` per tick; unpack ``count`` outputs per tick.

    Collection starts once the kernel's pipeline has filled.  The stepping
    is a ``sim.stream`` span, like an AXI-Stream harness run.
    """
    sim = Simulator(design.top if netlist is None else netlist)
    sim.poke("ce", 1)
    depth = design.meta["maxj"]["pipeline_depth"]
    outs = []
    with obs_trace.span("sim.stream", matrices=n_matrices) as span:
        for tick in range(len(words) + depth):
            if tick < len(words):
                sim.poke(in_port, words[tick])
            if tick >= depth:
                outs.append(_unpack(sim.peek_int(out_port), count))
            sim.step()
        span.set(cycles=sim.cycles)
    return outs


def run_matrix_kernel(design: Design, matrices: Sequence[Sequence[Sequence[int]]],
                      netlist: Netlist | None = None):
    """Drive one matrix per tick through the full-matrix kernel."""
    words = [_pack([v for row in matrix for v in row]) for matrix in matrices]
    flats = _stream(design, netlist, len(matrices), "in_mat", words, "out_mat",
                    ROWS * COLS)
    return [[flat[r * COLS:(r + 1) * COLS] for r in range(ROWS)] for flat in flats]


def run_row_kernel(design: Design, matrices: Sequence[Sequence[Sequence[int]]],
                   netlist: Netlist | None = None):
    """Drive one row per tick; collect column-streamed results."""
    words = [_pack(row) for matrix in matrices for row in matrix]
    col_beats = _stream(design, netlist, len(matrices), "in_row", words,
                        "out_col", COLS)
    # The kernel streams columns; reassemble row-major matrices.
    outs = []
    for k in range(len(matrices)):
        cols = col_beats[k * ROWS:(k + 1) * ROWS]
        outs.append([[cols[c][r] for c in range(COLS)] for r in range(ROWS)])
    return outs


def verify_maxj(design: Design, matrices, netlist: Netlist | None = None) -> bool:
    """Bit-exactness of a MaxJ design against the golden model.

    ``netlist`` reuses an already elaborated ``design.top``.
    """
    from ...idct.reference import chen_wang_idct

    if design.meta["maxj"]["ticks_per_op"] == 1:
        outs = run_matrix_kernel(design, matrices, netlist)
    else:
        outs = run_row_kernel(design, matrices, netlist)
    expected = [chen_wang_idct([list(r) for r in m]) for m in matrices]
    return outs == expected
