"""HLS interface synthesis: AXI-Stream tops and plain function tops.

``build_axis_top`` reproduces what the paper's tools generate around the C
kernel: a row-by-row AXI-Stream slave that stages the matrix into the
array storage, the compiled computation FSM, and an AXI-Stream master that
drains the result — all sharing the array's physical memory ports, which
is exactly why the sequential C flows are slow (64 element transfers
through one or two ports per direction).

``build_function_top`` exposes a start/done handshake instead, for unit
testing compiled functions directly (arrays are reached through the
simulator's memory backdoor).
"""

from __future__ import annotations

from ...core.errors import HlsError
from ...obs import metrics as obs_metrics
from ...obs import trace as obs_trace
from ...rtl import ops
from ...rtl.ir import Ref
from .cast import Function
from .compiler import Compiler, HlsOptions, HlsResult, INT_W, SHORT_W, _Transition

__all__ = ["build_axis_top", "build_function_top"]

ROWS, COLS, IN_W, OUT_W = 8, 8, 12, 9


def build_axis_top(function: Function, options: HlsOptions,
                   name: str | None = None) -> HlsResult:
    """Compile ``function`` with a generated row-by-row AXI-Stream shell.

    The function must take exactly one ``short[64]`` array parameter,
    transformed in place (the benchmark's shape).
    """
    with obs_trace.span("chls.compile", function=function.name,
                        top=name or "") as span:
        result = _build_axis_top(function, options, name)
        if obs_trace.enabled():
            obs_metrics.inc("chls.schedule.states", result.n_states)
            obs_metrics.inc("chls.schedule.iterations", result.schedule_retries)
            span.set(states=result.n_states, regions=result.regions,
                     retries=result.schedule_retries)
        return result


def _build_axis_top(function: Function, options: HlsOptions,
                    name: str | None = None) -> HlsResult:
    arrays = [p for p in function.params if p.is_array]
    if len(arrays) != 1 or any(not p.is_array for p in function.params):
        raise HlsError("axis interface synthesis expects one array parameter")
    param = arrays[0]
    size = param.array_size or ROWS * COLS
    if size != ROWS * COLS:
        raise HlsError("the streamed array must be 8x8")

    compiler = Compiler(function, options, name=name)
    module = compiler.module
    s_tdata = module.input("s_tdata", COLS * IN_W)
    s_tvalid = module.input("s_tvalid", 1)
    s_tlast = module.input("s_tlast", 1)
    m_tready = module.input("m_tready", 1)
    s_tready = module.output("s_tready", 1)
    m_tdata = module.output("m_tdata", COLS * OUT_W)
    m_tvalid = module.output("m_tvalid", 1)
    m_tlast = module.output("m_tlast", 1)
    error = module.output("error", 1)

    compiler.declare_array(param.name, size,
                           SHORT_W if param.ctype == "short" else INT_W)
    compiler._declare_var("__beat", 4)
    compiler._declare_var("__hold", COLS * IN_W)
    compiler._declare_var("__err", 1)

    from .cast import BinExpr, NumExpr, VarExpr
    from .compiler import _BankArray

    partitioned = isinstance(compiler._arrays[param.name], _BankArray)
    wait_in_states: list[int] = []
    wait_out_states: list[int] = []

    # ------------------------------------------------------------------
    # staging in
    # ------------------------------------------------------------------
    compiler._chain["__beat"] = ops.const(0, 4)
    compiler._close(_Transition("goto", compiler._state_index() + 1))

    beat_raw = Ref(compiler._vars["__beat"][0])
    last_beat = ops.eq(beat_raw, ops.const(ROWS - 1, 4))
    if partitioned:
        # One self-looping wait state: with a register bank there is no
        # port bottleneck, so all eight elements store in the accept cycle.
        state_w = 16
        compiler._cur_gate = Ref(s_tvalid)
        bank_in = compiler._arrays[param.name]
        for k in range(COLS):
            element = ops.sext(
                ops.bits(Ref(s_tdata), (k + 1) * IN_W - 1, k * IN_W), SHORT_W
            )
            # Element 8*beat + k is the only reachable target for lane k:
            # decode by beat instead of a full index compare.
            for b in range(ROWS):
                elem = bank_in.element(b * COLS + k)
                old_val = compiler._chain.get(elem)
                if old_val is None:
                    old_val = Ref(compiler._vars[elem][0])
                hit = ops.eq(beat_raw, ops.const(b, 4))
                compiler._chain[elem] = ops.mux(
                    hit, element, ops.resize(old_val, SHORT_W, signed=True)
                )
        compiler._chain["__beat"] = ops.mux(
            last_beat, ops.const(0, 4),
            ops.trunc(ops.add(beat_raw, 1), 4),
        )
        compiler._chain["__err"] = ops.bor(
            Ref(compiler._vars["__err"][0]), ops.bxor(Ref(s_tlast), last_beat)
        )
        here = compiler._state_index()
        wait_in_states.append(here)
        next_expr = ops.mux(
            Ref(s_tvalid),
            ops.mux(last_beat, ops.const(here + 1, state_w),
                    ops.const(here, state_w)),
            ops.const(here, state_w),
        )
        compiler._close(_Transition("expr", next_expr=next_expr))
    else:
        in_loop_first = compiler._state_index()
        # Wait state: capture the beat and check TLAST alignment.
        compiler._cur_gate = Ref(s_tvalid)
        compiler._chain["__hold"] = Ref(s_tdata)
        compiler._chain["__err"] = ops.bor(
            Ref(compiler._vars["__err"][0]), ops.bxor(Ref(s_tlast), last_beat)
        )
        wait_in_states.append(compiler._state_index())
        compiler._close(_Transition("wait", cond=Ref(s_tvalid),
                                    target=compiler._state_index() + 1))

        # Element stores (the scheduler splits them by write-port budget).
        hold_raw = Ref(compiler._vars["__hold"][0])
        for k in range(COLS):
            element = ops.sext(ops.bits(hold_raw, (k + 1) * IN_W - 1, k * IN_W),
                               INT_W)
            index = BinExpr("+", BinExpr("*", VarExpr("__beat"), NumExpr(COLS)),
                            NumExpr(k))
            compiler._try_in_cycle(
                lambda idx=index, val=element: compiler._store(param.name, idx, val)
            )
        # Advance the beat; loop back for more rows.
        beat_inc = ops.trunc(ops.add(Ref(compiler._vars["__beat"][0]), 1), 4)
        compiler._chain["__beat"] = beat_inc
        not_done = ops.ne(beat_inc, ops.const(ROWS, 4))
        tail = compiler._close(_Transition("branch", cond=not_done,
                                           target=in_loop_first))
        after_in = compiler._state_index()
        tail.transition.target_false = after_in

    # ------------------------------------------------------------------
    # the computation itself
    # ------------------------------------------------------------------
    compiler.compile_block(function.body)
    if compiler._cycle_in_use():
        compiler._close(_Transition("goto", compiler._state_index() + 1))

    # ------------------------------------------------------------------
    # staging out
    # ------------------------------------------------------------------
    state_w = 16  # resized by the FSM builder
    compiler._chain["__beat"] = ops.const(0, 4)
    compiler._close(_Transition("goto", compiler._state_index() + 1))
    if partitioned:
        # One self-looping wait state reading the bank combinationally.
        beat_reg = Ref(compiler._vars["__beat"][0])
        last_out = ops.eq(beat_reg, ops.const(ROWS - 1, 4))
        bank = compiler._arrays[param.name]
        beat_bits = ops.bits(beat_reg, 2, 0)
        elements = []
        for k in range(COLS):
            taps = [
                ops.bits(Ref(compiler._vars[bank.element(b * COLS + k)][0]),
                         OUT_W - 1, 0)
                for b in range(ROWS)
            ]
            elements.append(ops.select(beat_bits, taps, signed=False))
        packed = ops.cat(*reversed(elements))
        compiler._cur_gate = Ref(m_tready)
        compiler._chain["__beat"] = ops.mux(
            last_out, ops.const(0, 4),
            ops.trunc(ops.add(beat_reg, 1), 4),
        )
        wait_out_idx = compiler._state_index()
        wait_out_states.append(wait_out_idx)
        next_expr = ops.mux(
            Ref(m_tready),
            ops.mux(last_out, ops.const(0, state_w),
                    ops.const(wait_out_idx + 1, state_w)),
            ops.const(wait_out_idx, state_w),
        )
        # The single wait state loops on itself across beats; on the last
        # consumed beat it falls through to a dead state that wraps to 0
        # (folded below by pointing it straight at 0).
        next_expr = ops.mux(
            Ref(m_tready),
            ops.mux(last_out, ops.const(0, state_w),
                    ops.const(wait_out_idx, state_w)),
            ops.const(wait_out_idx, state_w),
        )
        compiler._close(_Transition("expr", next_expr=next_expr))
    else:
        out_loop_first = compiler._state_index()
        for k in range(COLS):
            compiler._declare_var(f"__o{k}", SHORT_W)
            index = BinExpr("+", BinExpr("*", VarExpr("__beat"), NumExpr(COLS)),
                            NumExpr(k))
            compiler._try_in_cycle(
                lambda idx=index, slot=k: compiler._write_var(
                    f"__o{slot}", compiler._load(param.name, idx)
                )
            )
        if compiler._cycle_in_use():
            compiler._close(_Transition("goto", compiler._state_index() + 1))
        # Present the beat and wait for the sink: on consumption, either
        # loop for the next beat or restart at state 0 for the next matrix.
        beat_reg = Ref(compiler._vars["__beat"][0])
        last_out = ops.eq(beat_reg, ops.const(ROWS - 1, 4))
        beat_inc = ops.trunc(ops.add(beat_reg, 1), 4)
        compiler._chain["__beat"] = ops.mux(last_out, ops.const(0, 4), beat_inc)
        compiler._cur_gate = Ref(m_tready)
        wait_out_idx = compiler._state_index()
        wait_out_states.append(wait_out_idx)
        next_expr = ops.mux(
            Ref(m_tready),
            ops.mux(last_out, ops.const(0, state_w),
                    ops.const(out_loop_first, state_w)),
            ops.const(wait_out_idx, state_w),
        )
        compiler._close(_Transition("expr", next_expr=next_expr))

    compiler.build_fsm()

    # Stream-side outputs.
    module.assign(s_tready, compiler.states_matching(wait_in_states))
    module.assign(m_tvalid, compiler.states_matching(wait_out_states))
    if partitioned:
        module.assign(m_tdata, packed)
    else:
        packed = ops.cat(*[
            ops.bits(Ref(compiler._vars[f"__o{k}"][0]), OUT_W - 1, 0)
            for k in reversed(range(COLS))
        ])
        module.assign(m_tdata, packed)
    module.assign(
        m_tlast,
        ops.band(
            compiler.states_matching(wait_out_states),
            ops.eq(Ref(compiler._vars["__beat"][0]), ops.const(ROWS - 1, 4)),
        ),
    )
    module.assign(error, Ref(compiler._vars["__err"][0]))

    return HlsResult(module=module, n_states=len(compiler._states),
                     loop_info=compiler.loop_info, regions=compiler.regions,
                     schedule_retries=compiler.schedule_retries)


def build_function_top(function: Function, options: HlsOptions,
                       name: str | None = None) -> HlsResult:
    """Compile ``function`` behind a start/done handshake (for testing)."""
    compiler = Compiler(function, options, name=name)
    module = compiler.module
    start = module.input("start", 1)
    done = module.output("done", 1)

    for param in function.params:
        width = SHORT_W if param.ctype == "short" else INT_W
        if param.is_array:
            if param.array_size is None:
                raise HlsError(f"array parameter {param.name!r} needs a size")
            compiler.declare_array(param.name, param.array_size, width)
        else:
            port = module.input(f"arg_{param.name}", width)
            compiler._declare_var(param.name, width)
            compiler._chain[param.name] = Ref(port)

    # Idle state: wait for start (captures scalar arguments on the way in).
    compiler._cur_gate = Ref(start)
    idle = compiler._close(_Transition("wait", cond=Ref(start),
                                       target=compiler._state_index() + 1))

    compiler.compile_block(function.body)
    if compiler._cycle_in_use():
        compiler._close(_Transition("goto", compiler._state_index() + 1))
    final = compiler._close(_Transition("branch", cond=Ref(start)))
    final.transition.target = final.index       # hold while start stays high
    final.transition.target_false = idle.index  # rearm when start drops

    compiler.build_fsm()
    module.assign(done, compiler._in_state(final.index))
    if function.return_type != "void":
        retval = module.output("retval", INT_W)
        if "__retval" not in compiler._vars:
            raise HlsError(f"{function.name}: non-void function never returns")
        module.assign(retval, ops.sext(Ref(compiler._vars["__retval"][0]), INT_W))
    return HlsResult(module=module, n_states=len(compiler._states),
                     loop_info=compiler.loop_info, regions=compiler.regions,
                     schedule_retries=compiler.schedule_retries)
