"""BSV-like IDCT designs, AXI-Stream interface included, written as rules.

Unlike the other frontends these designs implement the *whole* system —
computation and stream interface — as guarded atomic rules, the way a BSV
program would.  Two consequences the paper observes fall out of the rule
semantics rather than being coded in:

* the optimized design has **periodicity 9**: the ``start_cols`` rule that
  recycles the input counter conflicts with ``accept`` (both write
  ``in_cnt``), so one input beat per matrix is stalled — the "bubble" the
  paper notes "could in theory be eliminated";
* backpressure costs nothing extra: rules simply stay disabled while their
  guards are false.

The arithmetic is the same Chen-Wang butterfly, reused from the HC
transforms (the paper's BSV was likewise a translation of the same C).
"""

from __future__ import annotations

from ...axis.spec import KernelSpec, KernelStyle
from ...rtl import Module
from ..base import Design, SourceArtifact, source_of, traced_build
from ..hc.dsl import Sig, lit, mux, select
from ..hc.idct import idct_col_hc, idct_row_hc
from .engine import RulesModule, Schedule, SchedulerOptions

__all__ = [
    "build_initial_system",
    "build_opt_system",
    "bsv_initial",
    "bsv_opt",
]

ROWS, COLS, IN_W, OUT_W = 8, 8, 12, 9
ROW_BITS = COLS * IN_W
OUT_ROW_BITS = COLS * OUT_W


def _unpack(bus: Sig, width: int) -> list[Sig]:
    return [bus.bits((i + 1) * width - 1, i * width).as_signed() for i in range(COLS)]


def _pack(values: list[Sig], width: int) -> Sig:
    from ...rtl import ops

    return Sig(ops.cat(*[v.resize(width).expr for v in reversed(values)]), signed=False)


def _mid_width() -> int:
    """Inferred row-stage output width (uniform packing width)."""
    probe = RulesModule("probe")
    ins = [probe.input(f"p{k}", IN_W, signed=True) for k in range(COLS)]
    return max(v.width for v in idct_row_hc(ins))


def build_initial_system(
    options: SchedulerOptions | None = None,
) -> tuple[Module, Schedule]:
    """Initial BSV design: a phase-FSM straight from the C program.

    Rules: ``load`` (one row per cycle), ``rowpass`` (all eight row IDCTs
    in one action), ``colpass`` (all eight column IDCTs), ``drain`` (one
    output row per cycle, overlapping the next matrix's load).
    """
    m = RulesModule("bsv_initial")
    s_tdata = m.input("s_tdata", ROW_BITS)
    s_tvalid = m.input("s_tvalid", 1)
    s_tlast = m.input("s_tlast", 1)
    m_tready = m.input("m_tready", 1)

    mid_w = _mid_width()
    LOAD, ROWP, COLP = 0, 1, 2
    state = m.reg("state", 2, init=LOAD, signed=False)
    in_cnt = m.reg("in_cnt", 4, signed=False)
    in_buf = [m.reg(f"in_buf{r}", ROW_BITS, signed=False) for r in range(ROWS)]
    mid = [m.reg(f"mid{r}", COLS * mid_w, signed=False) for r in range(ROWS)]
    out_buf = [m.reg(f"out_buf{r}", OUT_ROW_BITS, signed=False) for r in range(ROWS)]
    out_pending = m.reg("out_pending", 1, signed=False)
    out_cnt = m.reg("out_cnt", 4, signed=False)
    out_reg = m.reg("out_reg", OUT_ROW_BITS, signed=False)
    out_vld = m.reg("out_vld", 1, signed=False)
    out_last = m.reg("out_last", 1, signed=False)
    err = m.reg("err", 1, signed=False)

    in_last = in_cnt.eq(ROWS - 1)

    load = m.rule("load", guard=s_tvalid & state.eq(LOAD))
    for r in range(ROWS):
        load.write(in_buf[r], mux(in_cnt.eq(r), s_tdata, in_buf[r]))
    load.write(in_cnt, mux(in_last, lit(0, 4, False),
                           Sig((in_cnt + 1).resize(4).expr, False)))
    load.write(state, mux(in_last, lit(ROWP, 2, False), state))
    load.write(err, err | (s_tlast.ne(in_last.resize(1))))

    rowpass = m.rule("rowpass", guard=state.eq(ROWP))
    row_results = [idct_row_hc(_unpack(in_buf[r], IN_W)) for r in range(ROWS)]
    for r in range(ROWS):
        rowpass.write(mid[r], _pack(row_results[r], mid_w))
    rowpass.write(state, lit(COLP, 2, False))

    colpass = m.rule("colpass", guard=state.eq(COLP) & ~out_pending)
    mid_elems = [_unpack_mid(mid[r], mid_w) for r in range(ROWS)]
    col_results = [
        idct_col_hc([mid_elems[r][c] for r in range(ROWS)]) for c in range(COLS)
    ]
    for r in range(ROWS):
        row_out = [col_results[c][r] for c in range(COLS)]
        colpass.write(out_buf[r], _pack(row_out, OUT_W))
    colpass.write(out_pending, 1)
    colpass.write(out_cnt, 0)
    colpass.write(state, lit(LOAD, 2, False))

    can_emit = ~out_vld | m_tready
    drain = m.rule("drain", guard=out_pending & can_emit)
    drain.write(out_reg, select(out_cnt, [Sig(b.expr, False) for b in out_buf]))
    drain.write(out_vld, 1)
    drain.write(out_last, out_cnt.eq(ROWS - 1).resize(1))
    drain.write(out_cnt, Sig((out_cnt + 1).resize(4).expr, False))
    drain.write(out_pending, mux(out_cnt.eq(ROWS - 1), lit(0, 1, False), out_pending))

    retire = m.rule("retire", guard=out_vld & m_tready)
    retire.write(out_vld, 0)

    m.output("s_tready", state.eq(LOAD), width=1)
    m.output("m_tdata", Sig(out_reg.expr, False), width=OUT_ROW_BITS)
    m.output("m_tvalid", out_vld, width=1)
    m.output("m_tlast", out_last & out_vld, width=1)
    m.output("error", err, width=1)
    return m.compile(options)


def _unpack_mid(bus: Sig, width: int) -> list[Sig]:
    return [bus.bits((i + 1) * width - 1, i * width).as_signed() for i in range(COLS)]


def build_opt_system(
    options: SchedulerOptions | None = None,
) -> tuple[Module, Schedule]:
    """Optimized BSV design: row-serial, one row + one column unit.

    The input counter is recycled by a separate ``start_cols`` rule, which
    conflicts with ``accept`` — the scheduling bubble that makes the
    steady-state periodicity 9 instead of 8.
    """
    m = RulesModule("bsv_opt")
    s_tdata = m.input("s_tdata", ROW_BITS)
    s_tvalid = m.input("s_tvalid", 1)
    s_tlast = m.input("s_tlast", 1)
    m_tready = m.input("m_tready", 1)

    mid_w = _mid_width()
    in_cnt = m.reg("in_cnt", 4, signed=False)
    in_sel = m.reg("in_sel", 1, signed=False)
    mid = [
        [m.reg(f"mid{h}_{r}", COLS * mid_w, signed=False) for r in range(ROWS)]
        for h in range(2)
    ]
    col_active = m.reg("col_active", 1, signed=False)
    col_cnt = m.reg("col_cnt", 3, signed=False)
    col_sel = m.reg("col_sel", 1, signed=False)
    out_sel = m.reg("out_sel", 1, signed=False)
    # Pending flags as set/clear toggle pairs: the producing rule
    # (col_step) and the consuming rule (drain) each own one register, so
    # they never conflict and can fire in the same cycle — the BSV idiom
    # for a 1-token credit between concurrently scheduled rules.
    pend_set = [m.reg(f"pend_set{h}", 1, signed=False) for h in range(2)]
    pend_clr = [m.reg(f"pend_clr{h}", 1, signed=False) for h in range(2)]
    out_pend = [pend_set[h] ^ pend_clr[h] for h in range(2)]
    obuf = [
        [m.reg(f"obuf{h}_{r}", OUT_ROW_BITS, signed=False) for r in range(ROWS)]
        for h in range(2)
    ]
    out_cnt = m.reg("out_cnt", 3, signed=False)
    read_sel = m.reg("read_sel", 1, signed=False)
    out_reg = m.reg("out_reg", OUT_ROW_BITS, signed=False)
    out_vld = m.reg("out_vld", 1, signed=False)
    out_last = m.reg("out_last", 1, signed=False)
    err = m.reg("err", 1, signed=False)

    # -- input: one row per cycle through the single row unit ------------
    row_out = _pack(idct_row_hc(_unpack(s_tdata, IN_W)), mid_w)
    can_accept = in_cnt.ne(ROWS)
    accept = m.rule("accept", guard=s_tvalid & can_accept)
    for h in range(2):
        for r in range(ROWS):
            hit = in_sel.eq(h) & in_cnt.eq(r)
            accept.write(mid[h][r], mux(hit, row_out, mid[h][r]))
    accept.write(in_cnt, Sig((in_cnt + 1).resize(4).expr, False))
    accept.write(err, err | (s_tlast.ne(in_cnt.eq(ROWS - 1).resize(1))))

    # -- matrix hand-off: conflicts with accept on in_cnt (the bubble) ---
    start_cols = m.rule("start_cols", guard=in_cnt.eq(ROWS) & ~col_active)
    start_cols.write(in_cnt, 0)
    start_cols.write(in_sel, ~in_sel)
    start_cols.write(col_sel, in_sel)
    start_cols.write(col_active, 1)
    start_cols.write(col_cnt, 0)

    # -- column phase: one column per cycle through the single col unit --
    pend_target = mux(out_sel.eq(0), out_pend[0], out_pend[1])
    col_step = m.rule("col_step", guard=col_active & ~pend_target)
    col_in = [
        mux(
            col_sel.eq(0),
            select(col_cnt, _unpack_mid(mid[0][r], mid_w)),
            select(col_cnt, _unpack_mid(mid[1][r], mid_w)),
        ).as_signed()
        for r in range(ROWS)
    ]
    col_out = idct_col_hc(col_in)
    col_done = col_cnt.eq(COLS - 1)
    for h in range(2):
        for r in range(ROWS):
            elems = _unpack_mid(obuf[h][r], OUT_W)
            updated = [
                mux(col_cnt.eq(c) & out_sel.eq(h), col_out[r], elems[c])
                for c in range(COLS)
            ]
            col_step.write(obuf[h][r], _pack(updated, OUT_W))
    col_step.write(col_cnt, Sig((col_cnt + 1).resize(3).expr, False))
    col_step.write(col_active, mux(col_done, lit(0, 1, False), col_active))
    for h in range(2):
        col_step.write(
            pend_set[h],
            mux(col_done & out_sel.eq(h), ~pend_set[h], pend_set[h]),
        )
    col_step.write(out_sel, mux(col_done, ~out_sel, out_sel))

    # -- output drain ------------------------------------------------------
    pend_read = mux(read_sel.eq(0), out_pend[0], out_pend[1])
    can_emit = ~out_vld | m_tready
    drain = m.rule("drain", guard=pend_read & can_emit)
    picked = mux(
        read_sel.eq(0),
        select(out_cnt, [Sig(b.expr, False) for b in obuf[0]]),
        select(out_cnt, [Sig(b.expr, False) for b in obuf[1]]),
    )
    drain.write(out_reg, picked)
    drain.write(out_vld, 1)
    drain.write(out_last, out_cnt.eq(ROWS - 1).resize(1))
    drain.write(out_cnt, Sig((out_cnt + 1).resize(3).expr, False))
    for h in range(2):
        drain.write(
            pend_clr[h],
            mux(out_cnt.eq(ROWS - 1) & read_sel.eq(h), ~pend_clr[h], pend_clr[h]),
        )
    drain.write(read_sel, mux(out_cnt.eq(ROWS - 1), ~read_sel, read_sel))

    retire = m.rule("retire", guard=out_vld & m_tready)
    retire.write(out_vld, 0)

    m.output("s_tready", can_accept, width=1)
    m.output("m_tdata", Sig(out_reg.expr, False), width=OUT_ROW_BITS)
    m.output("m_tvalid", out_vld, width=1)
    m.output("m_tlast", out_last & out_vld, width=1)
    m.output("error", err, width=1)
    return m.compile(options)


def _spec(style: KernelStyle, latency: int = 0) -> KernelSpec:
    return KernelSpec(style=style, rows=ROWS, cols=COLS, in_width=IN_W,
                      out_width=OUT_W, latency=latency)


def _sources(builder) -> list[SourceArtifact]:
    from ..hc import idct as hc_idct

    return [
        source_of(hc_idct.idct_row_hc, "IdctRow.bsv"),
        source_of(hc_idct.idct_col_hc, "IdctCol.bsv"),
        source_of(builder, f"{builder.__name__}.bsv"),
    ]


@traced_build("rules")
def bsv_initial(options: SchedulerOptions | None = None, config: str = "initial") -> Design:
    top, schedule = build_initial_system(options)
    design = Design(
        name="bsv-initial" if config == "initial" else f"bsv-initial-{config}",
        language="BSV",
        tool="BSC",
        config=config,
        top=top,
        spec=_spec(KernelStyle.COMB_MATRIX),
        sources=_sources(build_initial_system),
    )
    design.meta["schedule"] = schedule
    return design


@traced_build("rules")
def bsv_opt(options: SchedulerOptions | None = None, config: str = "opt") -> Design:
    top, schedule = build_opt_system(options)
    design = Design(
        name="bsv-opt" if config == "opt" else f"bsv-opt-{config}",
        language="BSV",
        tool="BSC",
        config=config,
        top=top,
        spec=_spec(KernelStyle.ROW_SERIAL, latency=17),
        sources=_sources(build_opt_system),
    )
    design.meta["schedule"] = schedule
    return design
