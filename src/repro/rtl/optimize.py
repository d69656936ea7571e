"""Netlist optimization passes.

Lightweight logic optimization over the flat netlist, mirroring what a
synthesis frontend does before technology mapping:

* **constant folding** — nodes whose operands are all constants evaluate
  at compile time (uses the reference interpreter, so folding can never
  disagree with simulation);
* **algebraic simplification** — ``x+0``, ``x*1``, ``x*0``, ``x&0``,
  ``x|0``, ``mux(c,a,a)``, ``mux(1,a,b)``, extension-of-extension, and
  slice-of-full-width identities;
* **common subexpression elimination** — structurally identical nodes are
  merged into one object, so the synthesis model (which counts per object)
  sees the sharing real synthesis would create;
* **dead code elimination** — assigns, registers, and memories that no
  output transitively observes are dropped.

All passes preserve the interface (inputs/outputs keep their Signal
identities) and semantics; the test suite checks simulation equivalence
on random stimuli for every pass combination.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .elaborate import FlatRegister, Netlist
from .ir import (
    BinOp,
    BinOpKind,
    Cat,
    Const,
    Expr,
    Ext,
    MemRead,
    Mux,
    Ref,
    Signal,
    Slice,
    eval_expr,
    expr_children,
    expr_mem_reads,
    expr_signals,
    node_key,
    with_children,
)
from .module import Memory, MemWrite

__all__ = ["optimize", "OptStats"]


@dataclass
class OptStats:
    """What the optimizer did (reported by the ablation benchmark)."""

    folded: int = 0
    simplified: int = 0
    merged: int = 0
    dead_assigns: int = 0
    dead_registers: int = 0
    dead_memories: int = 0

    def total(self) -> int:
        return (self.folded + self.simplified + self.merged
                + self.dead_assigns + self.dead_registers + self.dead_memories)


class _Rewriter:
    """One bottom-up rewrite over the expression DAG, with sharing."""

    def __init__(self, fold: bool, simplify: bool, cse: bool,
                 stats: OptStats, mem_map: dict | None = None) -> None:
        self._fold = fold
        self._simplify = simplify
        self._cse = cse
        self._stats = stats
        self._mem_map = mem_map or {}
        self._memo: dict[int, Expr] = {}
        self._canon: dict[tuple, Expr] = {}

    def rewrite(self, expr: Expr) -> Expr:
        cached = self._memo.get(id(expr))
        if cached is not None:
            return cached
        children = tuple(self.rewrite(c) for c in expr_children(expr))
        if isinstance(expr, MemRead):
            # Always rebuild reads so they point at the cloned memory.
            memory = self._mem_map.get(expr.memory, expr.memory)
            node: Expr = MemRead(memory, children[0])
        elif (all(a is b for a, b in zip(children, expr_children(expr)))
                and len(children) == len(expr_children(expr))):
            node = expr
        else:
            node = with_children(expr, children)
        if self._fold:
            node = self._try_fold(node)
        if self._simplify:
            node = self._try_simplify(node)
        if self._cse:
            node = self._canonicalize(node)
        self._memo[id(expr)] = node
        return node

    # -- constant folding ---------------------------------------------
    def _try_fold(self, expr: Expr) -> Expr:
        if isinstance(expr, (Const, Ref)):
            return expr
        if isinstance(expr, MemRead):
            return expr
        if all(isinstance(c, Const) for c in expr_children(expr)):
            value = eval_expr(expr, lambda _sig: 0)
            self._stats.folded += 1
            return Const(value, expr.width)
        return expr

    # -- algebraic identities ---------------------------------------------
    def _try_simplify(self, expr: Expr) -> Expr:
        out = self._simplify_node(expr)
        if out is not expr:
            self._stats.simplified += 1
        return out

    def _simplify_node(self, expr: Expr) -> Expr:
        if isinstance(expr, BinOp):
            a, b = expr.a, expr.b
            kind = expr.kind
            zero_b = isinstance(b, Const) and b.value == 0
            zero_a = isinstance(a, Const) and a.value == 0
            if kind is BinOpKind.ADD:
                if zero_b:
                    return a
                if zero_a:
                    return b
            if kind is BinOpKind.SUB and zero_b:
                return a
            if kind in (BinOpKind.MUL, BinOpKind.MULS):
                if (zero_a or zero_b):
                    return Const(0, expr.width)
            if kind is BinOpKind.AND:
                if zero_a or zero_b:
                    return Const(0, expr.width)
                ones = (1 << expr.width) - 1
                if isinstance(b, Const) and b.value == ones:
                    return a
                if isinstance(a, Const) and a.value == ones:
                    return b
            if kind is BinOpKind.OR:
                if zero_b:
                    return a
                if zero_a:
                    return b
            if kind is BinOpKind.XOR:
                if zero_b:
                    return a
                if zero_a:
                    return b
            if kind in (BinOpKind.SHL, BinOpKind.LSHR, BinOpKind.ASHR) and zero_b:
                return a
        elif isinstance(expr, Mux):
            if isinstance(expr.sel, Const):
                return expr.if_true if expr.sel.value else expr.if_false
            if expr.if_true is expr.if_false:
                return expr.if_true
        elif isinstance(expr, Ext):
            if expr.width == expr.a.width:
                return expr.a
            inner = expr.a
            if isinstance(inner, Ext) and inner.signed == expr.signed:
                return Ext(inner.a, expr.width, expr.signed)
        elif isinstance(expr, Slice):
            if expr.lo == 0 and expr.hi == expr.a.width - 1:
                return expr.a
            inner = expr.a
            if isinstance(inner, Slice):
                return Slice(inner.a, inner.lo + expr.hi, inner.lo + expr.lo)
        elif isinstance(expr, Cat) and len(expr.parts) == 1:
            return expr.parts[0]
        return expr

    def _canonicalize(self, expr: Expr) -> Expr:
        key = node_key(expr, tuple(map(id, expr_children(expr))))
        existing = self._canon.get(key)
        if existing is not None:
            if existing is not expr:
                self._stats.merged += 1
            return existing
        self._canon[key] = expr
        return expr


def optimize(
    netlist: Netlist,
    fold: bool = True,
    simplify: bool = True,
    cse: bool = True,
    dce: bool = True,
) -> tuple[Netlist, OptStats]:
    """Run the selected passes; returns (new netlist, statistics)."""
    with obs_trace.span("optimize", netlist=netlist.name) as span:
        return _optimize_traced(netlist, fold, simplify, cse, dce, span)


def _optimize_traced(netlist, fold, simplify, cse, dce, span):
    stats = OptStats()
    memories: list[Memory] = []
    mem_map: dict[Memory, Memory] = {}
    for mem in netlist.memories:
        clone = Memory(mem.name, mem.depth, mem.width,
                       max_read_ports=mem.max_read_ports,
                       max_write_ports=mem.max_write_ports,
                       init=list(mem.init))
        memories.append(clone)
        mem_map[mem] = clone
    rewriter = _Rewriter(fold, simplify, cse, stats, mem_map)

    assigns = [(sig, rewriter.rewrite(expr)) for sig, expr in netlist.assigns]
    registers = [
        FlatRegister(
            reg.signal,
            rewriter.rewrite(reg.next),
            reg.init,
            None if reg.en is None else rewriter.rewrite(reg.en),
        )
        for reg in netlist.registers
    ]
    for mem, clone in mem_map.items():
        for write in mem.writes:
            clone.writes.append(MemWrite(
                rewriter.rewrite(write.en),
                rewriter.rewrite(write.addr),
                rewriter.rewrite(write.data),
            ))

    if obs_trace.enabled():
        obs_trace.event("optimize.rewrite", folded=stats.folded,
                        simplified=stats.simplified, merged=stats.merged)

    if dce:
        with obs_trace.span("optimize.dce", netlist=netlist.name):
            assigns, registers, memories, stats = _dce(
                netlist, assigns, registers, memories, stats
            )

    optimized = Netlist(
        name=netlist.name,
        inputs=list(netlist.inputs),
        outputs=list(netlist.outputs),
        assigns=assigns,
        registers=registers,
        memories=memories,
    )
    optimized.validate()
    if obs_trace.enabled():
        obs_metrics.inc("optimize.runs")
        obs_metrics.inc("optimize.folded", stats.folded)
        obs_metrics.inc("optimize.simplified", stats.simplified)
        obs_metrics.inc("optimize.merged", stats.merged)
        obs_metrics.inc("optimize.dead", stats.dead_assigns
                        + stats.dead_registers + stats.dead_memories)
        span.set(assigns_in=len(netlist.assigns), assigns_out=len(assigns),
                 total=stats.total())
    return optimized, stats


def _dce(netlist, assigns, registers, memories, stats):
    """Drop logic no output can observe."""
    driver: dict[Signal, Expr] = {sig: expr for sig, expr in assigns}
    reg_of: dict[Signal, FlatRegister] = {r.signal: r for r in registers}

    live: set[Signal] = set()
    live_mems: set[Memory] = set()
    worklist: list[Signal] = list(netlist.outputs)

    def mark_expr(expr: Expr) -> None:
        for sig in expr_signals(expr):
            if sig not in live:
                worklist.append(sig)
        for node in expr_mem_reads(expr):
            if node.memory not in live_mems:
                live_mems.add(node.memory)  # type: ignore[arg-type]
                for write in node.memory.writes:  # type: ignore[attr-defined]
                    mark_expr(write.en)
                    mark_expr(write.addr)
                    mark_expr(write.data)

    while worklist:
        sig = worklist.pop()
        if sig in live:
            continue
        live.add(sig)
        expr = driver.get(sig)
        if expr is not None:
            mark_expr(expr)
        reg = reg_of.get(sig)
        if reg is not None:
            mark_expr(reg.next)
            if reg.en is not None:
                mark_expr(reg.en)

    new_assigns = [(sig, expr) for sig, expr in assigns if sig in live]
    new_registers = [reg for reg in registers if reg.signal in live]
    new_memories = [mem for mem in memories if mem in live_mems]
    stats.dead_assigns += len(assigns) - len(new_assigns)
    stats.dead_registers += len(registers) - len(new_registers)
    stats.dead_memories += len(memories) - len(new_memories)
    return new_assigns, new_registers, new_memories, stats
