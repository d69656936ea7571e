"""Netlist-to-Python compilation for the fast simulator.

The compiled evaluator turns the levelized netlist into two plain Python
functions — ``settle`` (combinational propagation) and ``tick`` (register
and memory commit) — operating on a flat list of unsigned integers.

Expression trees built by frontends are frequently DAGs (the same node
object reused in many places).  Naive code emission would duplicate shared
subtrees exponentially, so a common-subexpression pass hoists every node
referenced more than once into a local temporary first.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.bits import to_signed
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..rtl.elaborate import Netlist
from ..rtl.ir import Const, Expr, MemRead, Ref, Signal, emit_py, expr_children
from ..rtl.module import Memory

__all__ = ["CompiledNetlist", "compile_netlist"]


@dataclass(eq=False)
class CompiledNetlist:
    """The executable form of a netlist.

    ``settle(values, mems)`` propagates combinational logic in place;
    ``tick(values, mems)`` samples register/memory inputs and commits them
    (callers must settle first and settle again afterwards).
    """

    netlist: Netlist
    index_of: dict[Signal, int]
    mem_index_of: dict[Memory, int]
    settle: object  # callable(values: list[int], mems: list[list[int]])
    tick: object    # callable(values: list[int], mems: list[list[int]])
    source: str     # generated Python, kept for debugging and tests


class _Emitter:
    """Shared-subexpression-aware statement emitter."""

    def __init__(self, index_of: dict[Signal, int], mem_index_of: dict[Memory, int]) -> None:
        self._index_of = index_of
        self._mem_index_of = mem_index_of
        self._counts: dict[int, int] = {}
        self._nodes: dict[int, Expr] = {}
        self._temp_of: dict[int, str] = {}
        self._shared_below: dict[int, bool] = {}
        self._lines: list[str] = []
        self._next_temp = 0

    # -- analysis ------------------------------------------------------
    def count(self, expr: Expr) -> None:
        """Count references to every node (children of a node counted once)."""
        key = id(expr)
        self._counts[key] = self._counts.get(key, 0) + 1
        if self._counts[key] > 1:
            return
        self._nodes[key] = expr
        for child in expr_children(expr):
            self.count(child)

    # -- emission ------------------------------------------------------
    def _ref_of(self, sig: Signal) -> str:
        return f"v[{self._index_of[sig]}]"

    def _mem_of(self, mem: Memory) -> str:
        return f"mems[{self._mem_index_of[mem]}]"

    def code_for(self, expr: Expr) -> str:
        """Python expression string for ``expr``, hoisting shared nodes."""
        key = id(expr)
        if key in self._temp_of:
            return self._temp_of[key]
        if self._counts.get(key, 0) > 1 and not isinstance(expr, (Const, Ref)):
            # Hoist: emit children first (recursively), then a temp binding.
            inner = emit_py(expr, self._ref_of, self._mem_of) \
                if not self._has_shared_children(expr) else self._emit_with_temps(expr)
            temp = f"t{self._next_temp}"
            self._next_temp += 1
            self._lines.append(f"    {temp} = {inner}")
            self._temp_of[key] = temp
            return temp
        if self._has_shared_children(expr):
            return self._emit_with_temps(expr)
        return emit_py(expr, self._ref_of, self._mem_of)

    def _has_shared_children(self, expr: Expr) -> bool:
        """True when any transitive child is (or contains) a hoisted node."""
        key = id(expr)
        known = self._shared_below.get(key)
        if known is not None:
            return known
        result = any(
            (self._counts.get(id(child), 0) > 1 and not isinstance(child, (Const, Ref)))
            or self._has_shared_children(child)
            for child in expr_children(expr)
        )
        self._shared_below[key] = result
        return result

    def _emit_with_temps(self, expr: Expr) -> str:
        """Emit ``expr`` where some children are hoisted temporaries."""
        # Hoist shared children first, then emit this node with a reader
        # that intercepts them.  emit_py only sees leaf signals, so we wrap
        # the whole recursion manually for structured nodes.
        parts = {id(child): self.code_for(child) for child in expr_children(expr)}

        # Re-emit this single node with children replaced by their code.
        return _emit_node(expr, parts, self._ref_of, self._mem_of)

    def statement(self, line: str) -> None:
        self._lines.append(f"    {line}")

    @property
    def lines(self) -> list[str]:
        return self._lines


def _emit_node(
    expr: Expr,
    child_code: dict[int, str],
    ref_of,
    mem_of,
) -> str:
    """Emit one node given pre-rendered code for its children.

    We reuse :func:`emit_py` by substituting placeholder signals: build a
    shallow clone where each structured child is replaced by a fake Ref and
    map those fake signals to the rendered code.
    """
    from ..rtl.ir import BinOp, Cat, Ext, Mux, Slice, UnOp

    fakes: dict[Signal, str] = {}

    def wrap(child: Expr) -> Expr:
        code = child_code[id(child)]
        fake = Signal(f"__tmp{len(fakes)}", child.width)
        fakes[fake] = code
        return Ref(fake)

    if isinstance(expr, BinOp):
        clone: Expr = BinOp(expr.kind, wrap(expr.a), wrap(expr.b))
    elif isinstance(expr, UnOp):
        clone = UnOp(expr.kind, wrap(expr.a))
    elif isinstance(expr, Mux):
        clone = Mux(wrap(expr.sel), wrap(expr.if_true), wrap(expr.if_false))
    elif isinstance(expr, Cat):
        clone = Cat(tuple(wrap(p) for p in expr.parts))
    elif isinstance(expr, Slice):
        clone = Slice(wrap(expr.a), expr.hi, expr.lo)
    elif isinstance(expr, Ext):
        clone = Ext(wrap(expr.a), expr.width, expr.signed)
    elif isinstance(expr, MemRead):
        clone = MemRead(expr.memory, wrap(expr.addr))
    else:  # Const / Ref have no children
        return emit_py(expr, ref_of, mem_of)

    def reader(sig: Signal) -> str:
        if sig in fakes:
            return fakes[sig]
        return ref_of(sig)

    return emit_py(clone, reader, mem_of)


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile ``netlist`` into fast ``settle``/``tick`` functions."""
    with obs_trace.span("sim.compile", netlist=netlist.name) as span:
        return _compile_traced(netlist, span)


def _compile_traced(netlist: Netlist, span) -> CompiledNetlist:
    signals = netlist.signals()
    index_of = {sig: i for i, sig in enumerate(signals)}
    mem_index_of = {mem: i for i, mem in enumerate(netlist.memories)}
    ordered = netlist.comb_order()

    # -- settle --------------------------------------------------------
    settle_emit = _Emitter(index_of, mem_index_of)
    for _sig, expr in ordered:
        settle_emit.count(expr)
    settle_body: list[str] = []
    for sig, expr in ordered:
        code = settle_emit.code_for(expr)
        settle_emit.statement(f"v[{index_of[sig]}] = {code}")
    settle_body = settle_emit.lines or ["    pass"]

    # -- tick ----------------------------------------------------------
    tick_emit = _Emitter(index_of, mem_index_of)
    for reg in netlist.registers:
        tick_emit.count(reg.next)
        if reg.en is not None:
            tick_emit.count(reg.en)
    for mem in netlist.memories:
        for write in mem.writes:
            tick_emit.count(write.en)
            tick_emit.count(write.addr)
            tick_emit.count(write.data)

    commit_lines: list[str] = []
    for i, reg in enumerate(netlist.registers):
        next_code = tick_emit.code_for(reg.next)
        if reg.en is None:
            tick_emit.statement(f"n{i} = {next_code}")
            commit_lines.append(f"    v[{index_of[reg.signal]}] = n{i}")
        else:
            en_code = tick_emit.code_for(reg.en)
            idx = index_of[reg.signal]
            tick_emit.statement(f"n{i} = ({next_code}) if ({en_code}) else v[{idx}]")
            commit_lines.append(f"    v[{idx}] = n{i}")
    for mi, mem in enumerate(netlist.memories):
        for wi, write in enumerate(mem.writes):
            en_code = tick_emit.code_for(write.en)
            addr_code = tick_emit.code_for(write.addr)
            data_code = tick_emit.code_for(write.data)
            tick_emit.statement(
                f"w{mi}_{wi} = (({addr_code}) % {mem.depth}, "
                f"({data_code}) & {(1 << mem.width) - 1}) if ({en_code}) else None"
            )
            commit_lines.append(f"    if w{mi}_{wi} is not None:")
            commit_lines.append(
                f"        mems[{mi}][w{mi}_{wi}[0]] = w{mi}_{wi}[1]"
            )
    tick_body = tick_emit.lines + commit_lines or ["    pass"]

    source = "\n".join(
        ["def settle(v, mems):"]
        + settle_body
        + ["", "def tick(v, mems):"]
        + (tick_body or ["    pass"])
    )
    namespace: dict[str, object] = {"_sx": to_signed}
    exec(compile(source, f"<netlist {netlist.name}>", "exec"), namespace)
    if obs_trace.enabled():
        n_lines = source.count("\n") + 1
        obs_metrics.inc("sim.compile.netlists")
        obs_metrics.observe("sim.compile.source_lines", n_lines)
        span.set(signals=len(signals), source_lines=n_lines)
    return CompiledNetlist(
        netlist=netlist,
        index_of=index_of,
        mem_index_of=mem_index_of,
        settle=namespace["settle"],
        tick=namespace["tick"],
        source=source,
    )
