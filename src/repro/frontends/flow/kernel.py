"""The IDCT as a DSLX-style functional kernel.

One pure function from the packed input matrix to the packed output matrix
— no state, no timing, no explicit pipeline anywhere.  The compiler
(:mod:`repro.frontends.flow.pipeline`) decides where the registers go.
Adapted, as in the paper, from the XLS IDCT example with the element
widths changed to 12-bit inputs / 9-bit outputs.
"""

from __future__ import annotations

from ...idct.constants import W1, W2, W3, W5, W6, W7
from ..hc.dsl import Sig

__all__ = ["idct_kernel", "ROWS", "COLS", "IN_W", "OUT_W"]

ROWS, COLS, IN_W, OUT_W = 8, 8, 12, 9


def _row_xform(b: list[Sig]) -> list[Sig]:
    """One row butterfly (a DSLX ``fn idct_row``)."""
    x1 = b[4] << 11
    x0 = (b[0] << 11) + 128
    x8 = (b[1] + b[7]) * W7
    x4, x5 = x8 + b[1] * (W1 - W7), x8 - b[7] * (W1 + W7)
    x8 = (b[5] + b[3]) * W3
    x6, x7 = x8 - b[5] * (W3 - W5), x8 - b[3] * (W3 + W5)
    x8, x0 = x0 + x1, x0 - x1
    x1 = (b[2] + b[6]) * W6
    x2, x3 = x1 - b[6] * (W2 + W6), x1 + b[2] * (W2 - W6)
    x1, x4 = x4 + x6, x4 - x6
    x6, x5 = x5 + x7, x5 - x7
    x7, x8 = x8 + x3, x8 - x3
    x3, x0 = x0 + x2, x0 - x2
    x2 = ((x4 + x5) * 181 + 128) >> 8
    x4 = ((x4 - x5) * 181 + 128) >> 8
    return [
        (x7 + x1) >> 8, (x3 + x2) >> 8, (x0 + x4) >> 8, (x8 + x6) >> 8,
        (x8 - x6) >> 8, (x0 - x4) >> 8, (x3 - x2) >> 8, (x7 - x1) >> 8,
    ]


def _col_xform(b: list[Sig]) -> list[Sig]:
    """One column butterfly with 9-bit saturation (``fn idct_col``)."""
    x1 = b[4] << 8
    x0 = (b[0] << 8) + 8192
    x8 = (b[1] + b[7]) * W7 + 4
    x4, x5 = (x8 + b[1] * (W1 - W7)) >> 3, (x8 - b[7] * (W1 + W7)) >> 3
    x8 = (b[5] + b[3]) * W3 + 4
    x6, x7 = (x8 - b[5] * (W3 - W5)) >> 3, (x8 - b[3] * (W3 + W5)) >> 3
    x8, x0 = x0 + x1, x0 - x1
    x1 = (b[2] + b[6]) * W6 + 4
    x2, x3 = (x1 - b[6] * (W2 + W6)) >> 3, (x1 + b[2] * (W2 - W6)) >> 3
    x1, x4 = x4 + x6, x4 - x6
    x6, x5 = x5 + x7, x5 - x7
    x7, x8 = x8 + x3, x8 - x3
    x3, x0 = x0 + x2, x0 - x2
    x2 = ((x4 + x5) * 181 + 128) >> 8
    x4 = ((x4 - x5) * 181 + 128) >> 8
    return [
        ((x7 + x1) >> 14).clip(-256, 255),
        ((x3 + x2) >> 14).clip(-256, 255),
        ((x0 + x4) >> 14).clip(-256, 255),
        ((x8 + x6) >> 14).clip(-256, 255),
        ((x8 - x6) >> 14).clip(-256, 255),
        ((x0 - x4) >> 14).clip(-256, 255),
        ((x3 - x2) >> 14).clip(-256, 255),
        ((x7 - x1) >> 14).clip(-256, 255),
    ]


def idct_kernel(inputs: list[Sig]) -> dict[str, Sig]:
    """The full 8x8 IDCT: ``fn idct(in_mat) -> out_mat``."""
    from ...rtl import ops

    (in_mat,) = inputs
    rows = [
        [
            in_mat.bits((r * COLS + c + 1) * IN_W - 1, (r * COLS + c) * IN_W)
            .as_signed()
            for c in range(COLS)
        ]
        for r in range(ROWS)
    ]
    mid = [_row_xform(row) for row in rows]
    cols = [_col_xform([mid[r][c] for r in range(ROWS)]) for c in range(COLS)]
    elements = [cols[c][r].resize(OUT_W).expr
                for r in range(ROWS) for c in range(COLS)]
    packed = Sig(ops.cat(*reversed(elements)), signed=False)
    return {"out_mat": packed}
