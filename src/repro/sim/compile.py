"""The netlist-to-Python compiler behind the ``compiled`` and ``batch`` engines.

One compiler turns the levelized netlist into two plain Python functions —
``settle`` (combinational propagation) and ``tick`` (register and memory
commit) — over a flat list of values, one entry per signal.  What a value
*is* belongs to a **lowering**, the part that writes out each IR node as
Python code:

* :class:`ScalarLowering` (engine ``compiled``) — one unsigned int per
  signal; each node is rendered by :func:`repro.rtl.ir.emit_py_node`;
* :class:`repro.sim.batch.PackedLowering` (engine ``batch``) — several
  simulation lanes packed into one Python big integer.

A lowering may first rewrite the netlist it generates code from; the
packed lowering splits wide buses (:func:`repro.sim.batch.split_wide`).
Everything else is done here, once, for both: the signal and memory index
maps, the levelized order, common-subexpression elimination, the settle
and tick assembly, ``exec``, and the obs span and metrics.  Expression
trees built by frontends are frequently DAGs (the same node object reused
in many places); naive emission would duplicate shared subtrees
exponentially, so :class:`Emitter` hoists every node referenced more than
once into a local temporary first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..rtl.elaborate import Netlist
from ..rtl.ir import (Const, Expr, Ref, Signal, emit_operands, emit_py_node,
                      expr_children)
from ..rtl.module import Memory

__all__ = ["CompiledNetlist", "compile_netlist"]


@dataclass(eq=False)
class CompiledNetlist:
    """The executable form of a netlist.

    ``settle(values, mems)`` propagates combinational logic in place;
    ``tick(values, mems)`` samples register/memory inputs and commits them
    (callers must settle first and settle again afterwards).

    ``netlist`` is the netlist the code was generated from, after the
    lowering's rewrite of the input one.  ``fields`` maps each signal of the
    input netlist that the rewrite split to its field signals, least
    significant first; a simulator reassembles the signal's value from
    their slots.  The scalar lowering splits nothing.
    """

    netlist: Netlist
    index_of: dict[Signal, int]
    mem_index_of: dict[Memory, int]
    settle: object  # callable(values: list[int], mems: list[list[int]])
    tick: object    # callable(values: list[int], mems: list[list[int]])
    source: str     # generated Python, kept for debugging and tests
    fields: dict[Signal, tuple[Signal, ...]]


# Code that is safe to reference twice without recomputing anything.
_ATOM = re.compile(r"^(?:[A-Za-z_]\w*|v\[\d+\]|_K\[\d+\]|\d+)$")


class Emitter:
    """One function body: counts node references and hoists shared nodes.

    The lowering renders each node through :meth:`code_for` (or
    :meth:`atom`) on its children, so hoisting is decided here for every
    node of every lowering.  ``memo`` is per-body scratch a lowering may
    keep its own derived temporaries in.
    """

    def __init__(self, lowering) -> None:
        self.lowering = lowering
        self.lines: list[str] = []
        self.memo: dict[int, str] = {}
        self._counts: dict[int, int] = {}
        self._temp_of: dict[int, str] = {}
        self._next_temp = 0

    def count(self, expr: Expr) -> None:
        """Count references to every node (children of a node counted once)."""
        key = id(expr)
        self._counts[key] = self._counts.get(key, 0) + 1
        if self._counts[key] > 1:
            return
        for child in expr_children(expr):
            self.count(child)

    def bind(self, code: str) -> str:
        """Assign ``code`` to a fresh temporary and return its name."""
        name = f"t{self._next_temp}"
        self._next_temp += 1
        self.lines.append(f"    {name} = {code}")
        return name

    def code_for(self, expr: Expr) -> str:
        """Python code for ``expr``; a shared node is computed once."""
        key = id(expr)
        code = self._temp_of.get(key)
        if code is not None:
            return code
        code = self.lowering.node(self, expr)
        if self._counts.get(key, 0) > 1 and not isinstance(expr, (Const, Ref)):
            if not _ATOM.match(code):
                code = self.bind(code)
            self._temp_of[key] = code
        return code

    def atom(self, expr: Expr) -> str:
        """Like :meth:`code_for` but guaranteed safe to reference twice."""
        code = self.code_for(expr)
        return code if _ATOM.match(code) else self.bind(code)

    def statement(self, line: str) -> None:
        self.lines.append(f"    {line}")


class ScalarLowering:
    """One unsigned Python int per signal, one memory list per memory.

    Like every lowering it holds the netlist it generates code from
    (``netlist``, here the input one), the signals it split on the way
    (``fields``, here none) and their index maps.
    """

    span = "sim.compile"
    metric = "sim.compile"
    filename = "netlist"

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.fields: dict[Signal, tuple[Signal, ...]] = {}
        index_of, mem_index_of = index_maps(netlist)
        self.index_of, self.mem_index_of = index_of, mem_index_of
        self._ref_of = lambda sig: f"v[{index_of[sig]}]"
        self._mem_of = lambda mem: f"mems[{mem_index_of[mem]}]"
        self.header: list[str] = []
        self.attrs: dict[str, int] = {}

    def node(self, em: Emitter, expr: Expr) -> str:
        operands = [em.code_for(child) for child in emit_operands(expr)]
        return emit_py_node(expr, operands, self._ref_of, self._mem_of)

    def enable(self, em: Emitter, next_code: str, en: Expr, current: str) -> str:
        return f"({next_code}) if ({em.code_for(en)}) else {current}"

    def mem_write(self, name: str, mi: int, mem: Memory, write,
                  en: str, addr: str, data: str) -> tuple[str, list[str]]:
        stmt = (f"(({addr}) % {mem.depth}, "
                f"({data}) & {(1 << mem.width) - 1}) if ({en}) else None")
        return stmt, [f"    if {name} is not None:",
                      f"        mems[{mi}][{name}[0]] = {name}[1]"]

    def namespace(self) -> dict[str, object]:
        # The emitted code is plain integer arithmetic: it needs no helper.
        return {}

    def result(self, **parts) -> CompiledNetlist:
        return CompiledNetlist(**parts)


def index_maps(netlist: Netlist) -> tuple[dict[Signal, int], dict[Memory, int]]:
    """The value-list slot of every signal and the slot of every memory."""
    return ({sig: i for i, sig in enumerate(netlist.signals())},
            {mem: i for i, mem in enumerate(netlist.memories)})


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile ``netlist`` into fast scalar ``settle``/``tick`` functions."""
    return compile_lowered(netlist, ScalarLowering)


def compile_lowered(netlist: Netlist, lowering_cls, **options):
    """Compile ``netlist`` with the lowering ``lowering_cls(..., **options)``.

    The lowering may rewrite the netlist before code is generated from
    it.  The span is the lowering's (``sim.compile`` /
    ``sim.batch.compile``), covers that rewrite, and carries ``options``
    as attributes.
    """
    with obs_trace.span(lowering_cls.span, netlist=netlist.name,
                        **options) as span:
        lowering = lowering_cls(netlist, **options)
        netlist, index_of = lowering.netlist, lowering.index_of

        settle = Emitter(lowering)
        ordered = netlist.comb_order()
        for _sig, expr in ordered:
            settle.count(expr)
        for sig, expr in ordered:
            settle.statement(f"v[{index_of[sig]}] = {settle.code_for(expr)}")

        tick = Emitter(lowering)
        # roots() lists the assigns first; the rest are what tick samples.
        for root in netlist.roots()[len(netlist.assigns):]:
            tick.count(root)
        commits: list[str] = []
        for i, reg in enumerate(netlist.registers):
            current = f"v[{index_of[reg.signal]}]"
            code = tick.code_for(reg.next)
            if reg.en is not None:
                code = lowering.enable(tick, code, reg.en, current)
            tick.statement(f"n{i} = {code}")
            commits.append(f"    {current} = n{i}")
        for mi, mem in enumerate(netlist.memories):
            for wi, write in enumerate(mem.writes):
                name = f"w{mi}_{wi}"
                en, addr, data = (tick.code_for(expr)
                                  for expr in (write.en, write.addr, write.data))
                stmt, commit = lowering.mem_write(name, mi, mem, write,
                                                  en, addr, data)
                tick.statement(f"{name} = {stmt}")
                commits.extend(commit)

        source = "\n".join(
            lowering.header
            + ["def settle(v, mems):"]
            + (settle.lines or ["    pass"])
            + ["", "def tick(v, mems):"]
            + ((tick.lines + commits) or ["    pass"])
        )
        namespace = lowering.namespace()
        exec(compile(source, f"<{lowering.filename} {netlist.name}>", "exec"),
             namespace)
        if obs_trace.enabled():
            n_lines = source.count("\n") + 1
            obs_metrics.inc(f"{lowering.metric}.netlists")
            obs_metrics.observe(f"{lowering.metric}.source_lines", n_lines)
            span.set(signals=len(index_of), **lowering.attrs,
                     source_lines=n_lines)
        return lowering.result(
            netlist=netlist,
            index_of=index_of,
            mem_index_of=lowering.mem_index_of,
            settle=namespace["settle"],
            tick=namespace["tick"],
            source=source,
            fields=lowering.fields,
        )
