"""Verilog-baseline IDCT designs: initial and the two paper optimizations.

* ``initial``  — a naive combinational circuit with eight IDCT_row and
  eight IDCT_col instances behind the row-by-row AXI-Stream adapter (the
  paper's starting point: large, slow, adapter-bound).
* ``opt1``     — one IDCT_row (rows are transformed as they arrive) and
  eight IDCT_col instances: ~1.8x the throughput at ~1/1.7 the area.
* ``opt``      — one IDCT_row and one IDCT_col in a fully row-serial,
  ping-pong-buffered pipeline: double the throughput at ~1/4.6 the area
  (latency grows from 17 to 24 cycles).  The paper's best Verilog design.
"""

from __future__ import annotations

from ...axis.spec import KernelSpec, KernelStyle
from ...axis.wrapper import build_axis_wrapper
from ...rtl import Module, ops
from ...rtl.ir import Expr, Ref, Signal
from ..base import Design, SourceArtifact, source_of, traced_build
from .units import MID_WIDTH, idct_col_unit, idct_row_unit

__all__ = [
    "build_initial_kernel",
    "build_opt1_kernel",
    "build_opt_kernel",
    "verilog_initial",
    "verilog_opt1",
    "verilog_opt",
]

ROWS, COLS = 8, 8
IN_W, OUT_W = 12, 9
ROW_BITS = COLS * IN_W            # one input beat
MID_ROW_BITS = COLS * MID_WIDTH   # one row-stage result
OUT_ROW_BITS = COLS * OUT_W       # one output beat


def _mid_slice(bus: Signal, index: int) -> Expr:
    return ops.bits(bus, MID_WIDTH * (index + 1) - 1, MID_WIDTH * index)


def build_initial_kernel() -> Module:
    """Combinational matrix kernel: 8 row units into 8 column units."""
    m = Module("idct_v_initial")
    in_mat = m.input("in_mat", ROWS * ROW_BITS)
    out_mat = m.output("out_mat", ROWS * OUT_ROW_BITS)
    row_unit = idct_row_unit()
    col_unit = idct_col_unit()

    mid_rows: list[Signal] = []
    for r in range(ROWS):
        mid = m.wire(f"mid{r}", MID_ROW_BITS)
        m.instance(
            row_unit,
            f"u_row{r}",
            blk=ops.bits(in_mat, ROW_BITS * (r + 1) - 1, ROW_BITS * r),
            res=mid,
        )
        mid_rows.append(mid)

    col_outs: list[Signal] = []
    for c in range(COLS):
        # Transpose wiring: column c gathers element c of every row result.
        column = ops.cat(*[_mid_slice(mid_rows[r], c) for r in reversed(range(ROWS))])
        out = m.wire(f"colres{c}", OUT_ROW_BITS)
        m.instance(col_unit, f"u_col{c}", blk=column, res=out)
        col_outs.append(out)

    # Second transpose: out_mat[r][c] = col_outs[c] element r.
    rows_out = []
    for r in range(ROWS):
        elements = [
            ops.bits(col_outs[c], OUT_W * (r + 1) - 1, OUT_W * r)
            for c in range(COLS)
        ]
        rows_out.append(ops.cat(*reversed(elements)))
    m.assign(out_mat, ops.cat(*reversed(rows_out)))
    return m


def build_opt1_kernel() -> Module:
    """Row-serial kernel: one row unit at the input, eight column units.

    Each arriving row passes through the single IDCT_row combinationally
    and is registered; when the eighth lands, all eight IDCT_col units
    transform the buffered matrix in one cycle into the output buffer.
    """
    m = Module("idct_v_opt1")
    ce = m.input("ce", 1)
    in_row = m.input("in_row", ROW_BITS)
    in_valid = m.input("in_valid", 1)
    out_row = m.output("out_row", OUT_ROW_BITS)
    out_valid = m.output("out_valid", 1)

    row_unit = idct_row_unit()
    col_unit = idct_col_unit()

    row_res = m.wire("row_res", MID_ROW_BITS)
    m.instance(row_unit, "u_row", blk=Ref(in_row), res=row_res)

    in_cnt = m.reg("in_cnt", 3)
    last_in = m.connect("last_in", 1, ops.eq(in_cnt, ops.const(7, 3)))
    take = m.connect("take", 1, ops.band(Ref(in_valid), Ref(ce)))
    m.set_next(
        in_cnt,
        ops.mux(Ref(in_valid), ops.add(in_cnt, 1), Ref(in_cnt)),
        en=Ref(ce),
    )

    mid_regs: list[Signal] = []
    for r in range(ROWS):
        mid = m.reg(
            f"mid{r}",
            MID_ROW_BITS,
            next=Ref(row_res),
            en=ops.band(take, ops.eq(in_cnt, ops.const(r, 3))),
        )
        mid_regs.append(mid)

    # One cycle after the eighth row is registered, run the column pass.
    mat_full = m.reg("mat_full", 1, next=ops.band(take, last_in), en=Ref(ce))

    col_outs: list[Signal] = []
    for c in range(COLS):
        column = ops.cat(*[_mid_slice(mid_regs[r], c) for r in reversed(range(ROWS))])
        out = m.wire(f"colres{c}", OUT_ROW_BITS)
        m.instance(col_unit, f"u_col{c}", blk=column, res=out)
        col_outs.append(out)
    rows_out = []
    for r in range(ROWS):
        elements = [
            ops.bits(col_outs[c], OUT_W * (r + 1) - 1, OUT_W * r)
            for c in range(COLS)
        ]
        rows_out.append(ops.cat(*reversed(elements)))
    out_buf = m.reg(
        "out_buf",
        ROWS * OUT_ROW_BITS,
        next=ops.cat(*reversed(rows_out)),
        en=ops.band(Ref(ce), Ref(mat_full)),
    )

    # Drain the output buffer row by row.
    out_cnt = m.reg("out_cnt", 4, init=ROWS)
    draining = m.connect("draining", 1, ops.ne(out_cnt, ops.const(ROWS, 4)))
    m.set_next(
        out_cnt,
        ops.mux(
            Ref(mat_full),
            ops.const(0, 4),
            ops.mux(draining, ops.add(out_cnt, 1), Ref(out_cnt)),
        ),
        en=Ref(ce),
    )
    selected = ops.select(
        out_cnt,
        [ops.bits(out_buf, OUT_ROW_BITS * (r + 1) - 1, OUT_ROW_BITS * r)
         for r in range(ROWS)],
        signed=False,
    )
    m.assign(out_row, selected)
    m.assign(out_valid, Ref(draining))
    return m


def build_opt_kernel() -> Module:
    """Fully row-serial kernel: one IDCT_row, one IDCT_col, ping-pong buffers.

    Phase A registers row-transformed input rows into one half of the mid
    buffer; phase B (overlapping the next matrix's phase A) feeds columns of
    the other half through the single IDCT_col into the output ping-pong;
    phase C streams result rows out.  Steady state: one matrix per 8 cycles.
    """
    m = Module("idct_v_opt")
    ce = m.input("ce", 1)
    in_row = m.input("in_row", ROW_BITS)
    in_valid = m.input("in_valid", 1)
    out_row = m.output("out_row", OUT_ROW_BITS)
    out_valid = m.output("out_valid", 1)

    row_unit = idct_row_unit()
    col_unit = idct_col_unit()

    row_res = m.wire("row_res", MID_ROW_BITS)
    m.instance(row_unit, "u_row", blk=Ref(in_row), res=row_res)

    take = m.connect("take", 1, ops.band(Ref(in_valid), Ref(ce)))
    in_cnt = m.reg("in_cnt", 3)
    last_in = m.connect("last_in", 1, ops.eq(in_cnt, ops.const(7, 3)))
    in_sel = m.reg("in_sel", 1)
    m.set_next(in_cnt, ops.mux(Ref(in_valid), ops.add(in_cnt, 1), Ref(in_cnt)), en=Ref(ce))
    m.set_next(
        in_sel,
        ops.mux(ops.band(Ref(in_valid), last_in), ops.bnot(in_sel), Ref(in_sel)),
        en=Ref(ce),
    )

    # Mid ping-pong: 2 halves x 8 rows of row-stage results.
    mid: list[list[Signal]] = [[], []]
    for half in range(2):
        for r in range(ROWS):
            sel_match = ops.eq(in_sel, ops.const(half, 1))
            reg = m.reg(
                f"mid{half}_{r}",
                MID_ROW_BITS,
                next=Ref(row_res),
                en=ops.band(ops.band(take, ops.eq(in_cnt, ops.const(r, 3))), sel_match),
            )
            mid[half].append(reg)

    # Column phase: triggered each time a mid half completes.
    col_active = m.reg("col_active", 1)
    col_cnt = m.reg("col_cnt", 3)
    col_sel = m.reg("col_sel", 1)
    trigger = m.connect("trigger", 1, ops.band(take, last_in))
    last_col = m.connect("last_col", 1, ops.eq(col_cnt, ops.const(7, 3)))
    m.set_next(
        col_active,
        ops.mux(trigger, ops.const(1, 1),
                ops.mux(last_col, ops.const(0, 1), Ref(col_active))),
        en=Ref(ce),
    )
    m.set_next(col_sel, ops.mux(trigger, Ref(in_sel), Ref(col_sel)), en=Ref(ce))
    m.set_next(
        col_cnt,
        ops.mux(Ref(col_active), ops.add(col_cnt, 1), ops.const(0, 3)),
        en=Ref(ce),
    )

    # Column read: element r of the active column, 8:1 mux per row.
    col_in_elems = []
    for r in range(ROWS):
        mux0 = ops.select(col_cnt, [_mid_slice(mid[0][r], c) for c in range(COLS)],
                          signed=False)
        mux1 = ops.select(col_cnt, [_mid_slice(mid[1][r], c) for c in range(COLS)],
                          signed=False)
        col_in_elems.append(ops.mux(ops.eq(col_sel, ops.const(0, 1)), mux0, mux1))
    col_in = m.connect("col_in", MID_ROW_BITS, ops.cat(*reversed(col_in_elems)))
    col_res = m.wire("col_res", OUT_ROW_BITS)
    m.instance(col_unit, "u_col", blk=Ref(col_in), res=col_res)

    # Output ping-pong: column results land column-by-column.
    out_sel = m.reg("out_sel", 1)
    m.set_next(
        out_sel,
        ops.mux(ops.band(Ref(col_active), last_col), ops.bnot(out_sel), Ref(out_sel)),
        en=Ref(ce),
    )
    # Per-element registers with write-enable decode: writing column
    # ``col_cnt`` costs only enable logic, not data muxes.
    obuf_elems: list[list[list[Signal]]] = [
        [[None] * COLS for _ in range(ROWS)] for _ in range(2)  # type: ignore[list-item]
    ]
    for half in range(2):
        for r in range(ROWS):
            elem = ops.bits(col_res, OUT_W * (r + 1) - 1, OUT_W * r)
            for c in range(COLS):
                write_en = ops.band(
                    ops.band(
                        ops.band(Ref(ce), Ref(col_active)),
                        ops.eq(out_sel, ops.const(half, 1)),
                    ),
                    ops.eq(col_cnt, ops.const(c, 3)),
                )
                obuf_elems[half][r][c] = m.reg(
                    f"out{half}_{r}_{c}", OUT_W, next=elem, en=write_en
                )
    obuf: list[list[Expr]] = [[], []]
    for half in range(2):
        for r in range(ROWS):
            obuf[half].append(
                ops.cat(*[Ref(obuf_elems[half][r][c]) for c in reversed(range(COLS))])
            )

    # Output streaming phase.
    out_active = m.reg("out_active", 1)
    out_cnt = m.reg("out_cnt", 3)
    out_done = m.connect("out_done", 1, ops.eq(out_cnt, ops.const(7, 3)))
    finish_cols = m.connect("finish_cols", 1, ops.band(Ref(col_active), last_col))
    m.set_next(
        out_active,
        ops.mux(finish_cols, ops.const(1, 1),
                ops.mux(out_done, ops.const(0, 1), Ref(out_active))),
        en=Ref(ce),
    )
    m.set_next(
        out_cnt,
        ops.mux(Ref(out_active), ops.add(out_cnt, 1), ops.const(0, 3)),
        en=Ref(ce),
    )
    read_sel = m.reg("read_sel", 1)
    m.set_next(read_sel, ops.mux(finish_cols, Ref(out_sel), Ref(read_sel)), en=Ref(ce))

    picked0 = ops.select(out_cnt, list(obuf[0]), signed=False)
    picked1 = ops.select(out_cnt, list(obuf[1]), signed=False)
    m.assign(out_row, ops.mux(ops.eq(read_sel, ops.const(0, 1)), picked0, picked1))
    m.assign(out_valid, Ref(out_active))
    return m


def _comb_spec() -> KernelSpec:
    return KernelSpec(style=KernelStyle.COMB_MATRIX, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W)


def _row_spec(latency: int) -> KernelSpec:
    return KernelSpec(style=KernelStyle.ROW_SERIAL, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W, latency=latency)


def _sources(*builders, adapter: bool) -> list[SourceArtifact]:
    from ...axis import wrapper as axis_wrapper
    from . import units

    artifacts = [source_of(units.idct_row_unit, "idct_row.v"),
                 source_of(units.idct_col_unit, "idct_col.v")]
    for builder in builders:
        artifacts.append(source_of(builder, f"{builder.__name__}.v"))
    if adapter:
        # The hand-written row-by-row AXI-Stream adapter, as the paper's
        # Verilog flow requires (L_AXI).
        artifacts.append(
            source_of(axis_wrapper._build_matrix_wrapper, "axis_adapter.v")
        )
    return artifacts


@traced_build("vlog")
def verilog_initial() -> Design:
    kernel = build_initial_kernel()
    spec = _comb_spec()
    top = build_axis_wrapper(kernel, spec, name="verilog_initial_top")
    return Design(
        name="verilog-initial",
        language="Verilog",
        tool="Vivado",
        config="initial",
        top=top,
        spec=spec,
        sources=_sources(build_initial_kernel, adapter=True),
    )


@traced_build("vlog")
def verilog_opt1() -> Design:
    kernel = build_opt1_kernel()
    spec = _row_spec(latency=2)
    top = build_axis_wrapper(kernel, spec, name="verilog_opt1_top")
    return Design(
        name="verilog-opt1",
        language="Verilog",
        tool="Vivado",
        config="opt1",
        top=top,
        spec=spec,
        sources=_sources(build_opt1_kernel, adapter=True),
    )


@traced_build("vlog")
def verilog_opt() -> Design:
    kernel = build_opt_kernel()
    spec = _row_spec(latency=16)
    top = build_axis_wrapper(kernel, spec, name="verilog_opt_top")
    return Design(
        name="verilog-opt",
        language="Verilog",
        tool="Vivado",
        config="opt",
        top=top,
        spec=spec,
        sources=_sources(build_opt_kernel, adapter=True),
    )
