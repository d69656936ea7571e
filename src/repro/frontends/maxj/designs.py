"""MaxJ IDCT kernels: the full-matrix kernel and the row kernel.

* ``initial``: one whole 8x8 matrix enters and leaves per tick (1024-bit
  streams of 16-bit elements).  Everything is deeply pipelined, the clock
  is the fastest in the study, and the throughput is PCIe-bound:
  16 GB/s / 1024 bits ~ 125 Mops.
* ``opt``: one matrix *row* per tick through a single row unit, the
  library transpose buffer ("on-board memory"), and a single column unit:
  roughly 2.8x less area, frequency-bound throughput.
"""

from __future__ import annotations

from ...axis.spec import KernelSpec, KernelStyle
from ...idct.constants import W1, W2, W3, W5, W6, W7
from ..base import Design, SourceArtifact, source_of, traced_build
from .lang import MaxKernel, MaxVal
from .lib import transpose_8x8
from .manager import PCIE3_X16

__all__ = [
    "build_matrix_kernel",
    "build_row_kernel",
    "maxj_initial",
    "maxj_opt",
]

ROWS, COLS, IN_W, OUT_W = 8, 8, 12, 9
ELEM_W = 16  # PCIe stream element width (12/9-bit values, 16-bit records)


def _row_xform(b: list[MaxVal]) -> list[MaxVal]:
    """Row butterfly over MaxVals (every op is one pipeline stage)."""
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


def _col_xform(b: list[MaxVal]) -> list[MaxVal]:
    """Column butterfly with saturation."""
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


def build_matrix_kernel() -> MaxKernel:
    """Full-matrix kernel: 64 elements in, 64 elements out, every tick."""
    kernel = MaxKernel("maxj_idct_matrix")
    elements = kernel.input_vector("in_mat", ROWS * COLS, ELEM_W)
    rows = [elements[r * COLS:(r + 1) * COLS] for r in range(ROWS)]
    mid = [_row_xform(row) for row in rows]
    cols = [_col_xform([mid[r][c] for r in range(ROWS)]) for c in range(COLS)]
    out_elements = [cols[c][r] for r in range(ROWS) for c in range(COLS)]
    kernel.output_vector("out_mat", out_elements, ELEM_W)
    return kernel


def build_row_kernel() -> MaxKernel:
    """Row kernel: one row per tick, transpose in on-board memory."""
    kernel = MaxKernel("maxj_idct_row")
    row = kernel.input_vector("in_row", COLS, ELEM_W)
    mid = _row_xform(row)
    columns = transpose_8x8(kernel, mid)
    result = _col_xform(columns)
    kernel.output_vector("out_col", result, ELEM_W)
    return kernel


def _sources(builder) -> list[SourceArtifact]:
    return [
        source_of(_row_xform, "IdctRow.maxj"),
        source_of(_col_xform, "IdctCol.maxj"),
        source_of(builder, f"{builder.__name__}.maxj"),
        SourceArtifact(
            label="IdctManager.maxj",
            text=(
                "Manager manager = new Manager(params);\n"
                "Kernel k = new IdctKernel(manager.makeKernelParameters());\n"
                "manager.setKernel(k);\n"
                "manager.setIO(link(PCIE_CPU));\n"
                "manager.build();\n"
            ),
        ),
    ]


@traced_build("maxj")
def maxj_initial() -> Design:
    kernel = build_matrix_kernel()
    spec = KernelSpec(style=KernelStyle.PIPELINED_MATRIX, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W,
                      latency=max(1, kernel.pipeline_depth))
    design = Design(
        name="maxj-initial",
        language="MaxJ",
        tool="MaxCompiler",
        config="initial",
        top=kernel.module,
        spec=spec,
        sources=_sources(build_matrix_kernel),
    )
    design.meta["maxj"] = {
        "ticks_per_op": 1,
        "input_bits": ROWS * COLS * ELEM_W,
        "pipeline_depth": kernel.pipeline_depth,
        "link": PCIE3_X16,
    }
    return design


@traced_build("maxj")
def maxj_opt() -> Design:
    kernel = build_row_kernel()
    spec = KernelSpec(style=KernelStyle.PIPELINED_MATRIX, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W,
                      latency=max(1, kernel.pipeline_depth))
    design = Design(
        name="maxj-opt",
        language="MaxJ",
        tool="MaxCompiler",
        config="opt",
        top=kernel.module,
        spec=spec,
        sources=_sources(build_row_kernel),
    )
    design.meta["maxj"] = {
        "ticks_per_op": ROWS,
        "input_bits": COLS * ELEM_W * ROWS,
        "pipeline_depth": kernel.pipeline_depth,
        "link": PCIE3_X16,
    }
    return design
