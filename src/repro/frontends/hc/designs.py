"""Chisel-like IDCT designs: initial (combinational) and optimized.

The descriptions are deliberately concise: functional transforms, list
comprehensions for replication, a ``transpose`` that is pure wiring, and
the DSL's width inference doing the bookkeeping the Verilog baseline
spells out by hand.
"""

from __future__ import annotations

from ...axis.spec import KernelSpec, KernelStyle
from ...axis.wrapper import build_axis_wrapper
from ...rtl import Module
from ..base import Design, SourceArtifact, source_of, traced_build
from .dsl import HcModule, Sig, lit, mux, select, transpose
from .idct import idct_col_hc, idct_row_hc

__all__ = [
    "build_initial_kernel",
    "build_opt_kernel",
    "chisel_initial",
    "chisel_opt",
]

ROWS, COLS, IN_W, OUT_W = 8, 8, 12, 9


def _unpack_row(bus: Sig, width: int) -> list[Sig]:
    """Split a packed beat into signed elements."""
    return [bus.bits((i + 1) * width - 1, i * width).as_signed()
            for i in range(COLS)]


def _pack(values: list[Sig], width: int) -> Sig:
    """Concatenate elements (LSB-first) at a uniform width."""
    from ...rtl import ops

    resized = [v.resize(width).expr for v in values]
    return Sig(ops.cat(*reversed(resized)), signed=False)


def build_initial_kernel() -> Module:
    """Combinational matrix kernel: two functional passes and a transpose."""
    hc = HcModule("idct_hc_initial")
    in_mat = hc.input("in_mat", ROWS * COLS * IN_W, signed=False)
    rows = [
        _unpack_row(in_mat.bits((r + 1) * COLS * IN_W - 1, r * COLS * IN_W), IN_W)
        for r in range(ROWS)
    ]
    mid = [idct_row_hc(row) for row in rows]
    out_cols = [idct_col_hc(col) for col in transpose(mid)]
    out_rows = transpose(out_cols)
    hc.output("out_mat", _pack([e for row in out_rows for e in row], OUT_W))
    return hc.module


def build_opt_kernel() -> Module:
    """Row-serial kernel: one row pass, one column pass, ping-pong buffers.

    The same architecture as the optimized Verilog design, expressed with
    generators: register matrices come from comprehensions, column reads
    from ``select``, and the clock enable is threaded automatically.
    """
    hc = HcModule("idct_hc_opt", kernel=True)
    in_row = hc.input("in_row", COLS * IN_W, signed=False)
    in_valid = hc.input("in_valid", 1, signed=False)

    row_res = idct_row_hc(_unpack_row(in_row, IN_W))
    row_res = [hc.wire(f"rowres{c}", v) for c, v in enumerate(row_res)]
    mid_width = max(v.width for v in row_res)

    in_cnt, in_wrap = hc.counter("in_cnt", ROWS, advance=in_valid)
    in_sel = hc.reg_declare("in_sel", 1, signed=False)
    hc.drive(in_sel, mux(in_valid & in_wrap, ~in_sel, in_sel))

    mid = [
        [
            [
                hc.reg(
                    f"mid{half}_{r}_{c}",
                    row_res[c].resize(mid_width),
                    en=in_valid & in_cnt.eq(r) & in_sel.eq(half),
                )
                for c in range(COLS)
            ]
            for r in range(ROWS)
        ]
        for half in range(2)
    ]

    # Column phase runs for 8 cycles each time a mid half completes.
    trigger = hc.wire("trigger", in_valid & in_wrap)
    col_active = hc.reg_declare("col_active", 1, signed=False)
    col_cnt, col_wrap = hc.counter("col_cnt", COLS, advance=col_active)
    finish = hc.wire("finish", col_active & col_wrap)
    hc.drive(col_active, mux(trigger, lit(1, 1, False), mux(finish, lit(0, 1, False), col_active)))
    col_sel = hc.reg_declare("col_sel", 1, signed=False)
    hc.drive(col_sel, mux(trigger, in_sel, col_sel))

    col_in = [
        mux(
            col_sel.eq(0),
            select(col_cnt, mid[0][r]),
            select(col_cnt, mid[1][r]),
        ).as_signed()
        for r in range(ROWS)
    ]
    col_out = idct_col_hc(col_in)

    out_sel = hc.reg_declare("out_sel", 1, signed=False)
    hc.drive(out_sel, mux(finish, ~out_sel, out_sel))
    obuf = [
        [
            [
                hc.reg(
                    f"out{half}_{r}_{c}",
                    col_out[r],
                    en=col_active & col_cnt.eq(c) & out_sel.eq(half),
                )
                for c in range(COLS)
            ]
            for r in range(ROWS)
        ]
        for half in range(2)
    ]

    # Output streaming phase.
    out_active = hc.reg_declare("out_active", 1, signed=False)
    out_cnt, out_wrap = hc.counter("out_cnt", ROWS, advance=out_active)
    hc.drive(
        out_active,
        mux(finish, lit(1, 1, False),
            mux(out_active & out_wrap, lit(0, 1, False), out_active)),
    )
    read_sel = hc.reg_declare("read_sel", 1, signed=False)
    hc.drive(read_sel, mux(finish, out_sel, read_sel))

    picked = [
        mux(
            read_sel.eq(0),
            select(out_cnt, [_pack(obuf[0][r], OUT_W) for r in range(ROWS)]),
            select(out_cnt, [_pack(obuf[1][r], OUT_W) for r in range(ROWS)]),
        )
    ]
    hc.output("out_row", picked[0], width=COLS * OUT_W)
    hc.output("out_valid", out_active, width=1)
    return hc.module


def _sources(*builders) -> list[SourceArtifact]:
    from . import idct as idct_mod

    artifacts = [
        source_of(idct_mod.idct_row_hc, "IdctRow.scala"),
        source_of(idct_mod.idct_col_hc, "IdctCol.scala"),
    ]
    for builder in builders:
        artifacts.append(source_of(builder, f"{builder.__name__}.scala"))
    # The hand-written AXI adapter (Chisel flows write their own too).
    from ...axis import wrapper as axis_wrapper

    artifacts.append(source_of(axis_wrapper._build_matrix_wrapper, "AxisAdapter.scala"))
    return artifacts


@traced_build("hc")
def chisel_initial() -> Design:
    spec = KernelSpec(style=KernelStyle.COMB_MATRIX, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W)
    top = build_axis_wrapper(build_initial_kernel(), spec, name="chisel_initial_top")
    return Design(
        name="chisel-initial",
        language="Chisel",
        tool="Chisel",
        config="initial",
        top=top,
        spec=spec,
        sources=_sources(build_initial_kernel),
    )


@traced_build("hc")
def chisel_opt() -> Design:
    spec = KernelSpec(style=KernelStyle.ROW_SERIAL, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W, latency=16)
    top = build_axis_wrapper(build_opt_kernel(), spec, name="chisel_opt_top")
    return Design(
        name="chisel-opt",
        language="Chisel",
        tool="Chisel",
        config="opt",
        top=top,
        spec=spec,
        sources=_sources(build_opt_kernel),
    )
