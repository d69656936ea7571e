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
and tick assembly, ``exec``, and the obs span and metrics.

* **Structural common subexpressions.**  Expression trees built by
  frontends are DAGs (the same node object reused in many places), and
  they also build the same structure twice as distinct objects.
  :class:`Emitter` numbers nodes by structure, so each one is emitted
  once, and hoists every node referenced more than once into a local
  temporary.
* **A gated tick.**  HLS datapaths load few registers per FSM state, and
  pipelines advance every stage on one shared enable.  ``tick`` groups
  registers and memory write ports by their enable and computes, and
  commits, a group's next values only under that enable; a node the
  group's roots alone reach is computed inside its block.
* **Guarded partitions (packed lowering).**  A pipeline changes few of
  its registers in a cycle once it drains.  The packed ``tick`` computes
  each dataflow-connected group of next-state statements only when a
  value it reads changed since it last ran (:func:`_partition`); the
  scalar ``tick`` stays straight-line.
"""

from __future__ import annotations

import re
from collections import ChainMap
from contextlib import contextmanager
from dataclasses import dataclass

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..rtl.elaborate import Netlist
from ..rtl.ir import (Const, Expr, Ref, Signal, emit_operands, emit_py_node,
                      node_key)
from ..rtl.module import Memory

__all__ = ["CompiledNetlist", "compile_netlist"]


@dataclass(eq=False)
class CompiledNetlist:
    """The executable form of a netlist.

    ``settle(values, mems)`` propagates combinational logic in place;
    ``tick(values, mems)`` samples register/memory inputs and commits them
    (callers must settle first, and again before reading the new state).

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

#: The owner of a node referenced from outside one enable group's roots.
TOP = -1


class Emitter:
    """One function body: numbers nodes by structure and hoists shared ones.

    :meth:`count` gives every node a *value number*: nodes of the same
    type and attributes over the same operand numbers get the same one,
    so a structure built twice by a frontend is emitted once.  The
    operands are the lowering's (``lowering.operands``).  Each number is
    counted once per reference from a root or from a distinct parent, and
    the lowering renders each node through :meth:`code_for` (or
    :meth:`atom`) on its operands, so hoisting a number referenced more
    than once into a temporary is decided here for every lowering.

    The same walk records the *owner* of each number: the enable group
    whose roots are the only ones reaching it, or :data:`TOP`.  Inside
    :meth:`block` a group's own nodes are emitted in place; a ``TOP``
    node is bound in the top scope, before the first block, where every
    block can read it.  Temporaries a lowering derives from a node
    (:meth:`derived`) are scoped the same way: one bound inside a block
    is forgotten when the block ends.
    """

    def __init__(self, lowering) -> None:
        self.lowering = lowering
        self._operands = lowering.operands
        self.merged = 0  # node objects numbered like an earlier structure
        self._top: list[str] = []
        self._top_memo: dict[int, str] = {}
        self.lines = self._top
        self._memo: dict[int, str] | ChainMap = self._top_memo
        self._number_of: dict[int, int] = {}
        self._table: dict[tuple, int] = {}
        self._nodes: list[Expr] = []
        self._kids: list[tuple[int, ...]] = []
        self._counts: list[int] = []
        self._owner: list[int] = []
        self._temp_of: dict[int, str] = {}
        self._next_temp = 0

    def count(self, expr: Expr, group: int = TOP) -> int:
        """Count one reference to ``expr`` from a root of ``group``."""
        number = self._number(expr, group)
        self._counts[number] += 1
        return number

    def _number(self, expr: Expr, group: int) -> int:
        number = self._number_of.get(id(expr))
        if number is None:
            kids = tuple([self._number(kid, group)
                          for kid in self._operands(expr)])
            key = node_key(expr, kids)
            number = self._table.get(key)
            if number is None:
                number = self._table[key] = len(self._nodes)
                self._number_of[id(expr)] = number
                self._nodes.append(expr)
                self._kids.append(kids)
                self._counts.append(0)
                self._owner.append(group)
                for kid in kids:
                    self._counts[kid] += 1
                return number
            self.merged += 1
            self._number_of[id(expr)] = number
        if self._owner[number] != group:
            self._share(number)
        return number

    def _share(self, number: int) -> None:
        """Mark a number reached from two groups, and all below it, ``TOP``."""
        if self._owner[number] != TOP:
            self._owner[number] = TOP
            for kid in self._kids[number]:
                self._share(kid)

    @contextmanager
    def block(self):
        """Emit into a fresh body (returned) with its own memo scope."""
        self.lines, self._memo = [], ChainMap({}, self._top_memo)
        try:
            yield self.lines
        finally:
            self.lines, self._memo = self._top, self._top_memo

    def bind(self, code: str) -> str:
        """Assign ``code`` to a fresh temporary and return its name."""
        name = f"t{self._next_temp}"
        self._next_temp += 1
        self.lines.append(f"{name} = {code}")
        return name

    def code_for(self, expr: Expr) -> str:
        """Python code for ``expr``; a shared node is computed once."""
        number = self._number_of[id(expr)]
        code = self._temp_of.get(number)
        if code is not None:
            return code
        if self._owner[number] == TOP and self.lines is not self._top:
            inner = self.lines, self._memo
            self.lines, self._memo = self._top, self._top_memo
            try:
                return self.code_for(expr)
            finally:
                self.lines, self._memo = inner
        node = self._nodes[number]
        code = self.lowering.node(self, node)
        if self._counts[number] > 1 and not isinstance(node, (Const, Ref)):
            if not _ATOM.match(code):
                code = self.bind(code)
            self._temp_of[number] = code
        return code

    def atom(self, expr: Expr) -> str:
        """Like :meth:`code_for` but guaranteed safe to reference twice."""
        code = self.code_for(expr)
        return code if _ATOM.match(code) else self.bind(code)

    def derived(self, expr: Expr, make) -> str:
        """A temporary of ``make(atom of expr)``, bound once per scope."""
        number = self._number_of[id(expr)]
        name = self._memo.get(number)
        if name is None:
            name = self._memo[number] = self.bind(make(self.atom(expr)))
        return name

    def statement(self, line: str) -> None:
        self.lines.append(line)


class ScalarLowering:
    """One unsigned Python int per signal, one memory list per memory.

    Like every lowering it holds the netlist it generates code from
    (``netlist``, here the input one), the signals it split on the way
    (``fields``, here none) and their index maps.
    """

    span = "sim.compile"
    metric = "sim.compile"
    filename = "netlist"
    gated = False  # a straight-line tick (see compile_lowered)

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.fields: dict[Signal, tuple[Signal, ...]] = {}
        index_of, mem_index_of = index_maps(netlist)
        self.index_of, self.mem_index_of = index_of, mem_index_of
        self._ref_of = lambda sig: f"v[{index_of[sig]}]"
        self._mem_of = lambda mem: f"mems[{mem_index_of[mem]}]"
        self.header: list[str] = []
        self.attrs: dict[str, int] = {}

    operands = staticmethod(emit_operands)

    def node(self, em: Emitter, expr: Expr) -> str:
        operands = [em.code_for(child) for child in emit_operands(expr)]
        return emit_py_node(expr, operands, self._ref_of, self._mem_of)

    def commit(self, en: str, pairs: list[tuple[str, str]]) -> list[str]:
        return [f"if {en}:"] + [f"    {cur} = {nxt}" for cur, nxt in pairs]

    def mem_write(self, name: str, mi: int, mem: Memory, write,
                  en: str, addr: str, data: str) -> tuple[list[str], list[str]]:
        return ([f"{name}a = ({addr}) % {mem.depth}",
                 f"{name}d = ({data}) & {(1 << mem.width) - 1}"],
                [f"mems[{mi}][{name}a] = {name}d"])

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

    ``tick`` is gated: registers and memory write ports are grouped by
    the value number of their enable, and a group's next values are
    computed, and committed, only under ``if e<g>:``.  All next values
    are computed before the first commit.  Write ports commit in their
    original order, so the last enabled port to one address wins.

    A lowering with ``gated`` set (the packed one) also guards its
    next-state code by partition (:func:`_partition`): a partition runs
    only when what it reads changed.  Its ``tick`` is then a generator
    whose locals carry the partitions' values from cycle to cycle,
    resumed once a cycle by :func:`_ticker`; the commits are unchanged.
    The scalar lowering keeps a straight-line ``tick``: streamed back to
    back, its designs change most of their state every cycle, and the
    guards' text would only lengthen ``compile()``.
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
        group_of: dict[int, int] = {}  # enable value number -> group
        enables: list[Expr] = []

        def group(en: Expr | None) -> int:
            if en is None:
                return TOP
            g = group_of.setdefault(tick.count(en), len(enables))
            if g == len(enables):
                enables.append(en)
            return g

        regs: dict[int, list[int]] = {}    # group -> register indexes
        writes: dict[int, list[tuple]] = {}  # group -> write ports
        for i, reg in enumerate(netlist.registers):
            g = group(reg.en)
            regs.setdefault(g, []).append(i)
            tick.count(reg.next, g)
        port = 0
        for mi, mem in enumerate(netlist.memories):
            for write in mem.writes:
                g = group(write.en)
                writes.setdefault(g, []).append((port, mi, mem, write))
                tick.count(write.addr, g)
                tick.count(write.data, g)
                port += 1

        def compute(i: int) -> None:
            tick.statement(f"n{i} = {tick.code_for(netlist.registers[i].next)}")

        def commits(g: int) -> list[tuple[str, str]]:
            return [(f"v[{index_of[netlist.registers[i].signal]}]", f"n{i}")
                    for i in regs.get(g, ())]

        partitions = 0  # guarded so far; the scalar lowering guards none

        def partitioned(region: list[str]) -> list[str]:
            nonlocal partitions
            if lowering.gated:
                region, partitions = _partition(region, partitions)
            return region

        # The enables and the ungated next values, then a block per group.
        for g, en in enumerate(enables):
            tick.statement(f"e{g} = {tick.code_for(en)}")
        for i in regs.get(TOP, ()):
            compute(i)
        blocks: list[str] = []
        port_commits: list[tuple[int, list[str]]] = []
        for g in range(len(enables)):
            with tick.block() as body:
                for i in regs.get(g, ()):
                    compute(i)
                for port, mi, mem, write in writes.get(g, ()):
                    lines, commit = lowering.mem_write(
                        f"w{port}", mi, mem, write, f"e{g}",
                        tick.code_for(write.addr), tick.code_for(write.data))
                    body += lines
                    port_commits.append((port, [f"if e{g}:"] + _indent(commit)))
            blocks += [f"if e{g}:"] + _indent(partitioned(body))
        # The blocks add to the head as they go, so it is partitioned last.
        head = partitioned(tick.lines)

        # Commits, once every next value is computed: the ungated
        # registers, each group's registers, then the write ports in
        # port order.
        tail = [f"{cur} = {nxt}" for cur, nxt in commits(TOP)]
        for g in range(len(enables)):
            if g in regs:
                tail += lowering.commit(f"e{g}", commits(g))
        for _port, commit in sorted(port_commits):
            tail += commit

        if lowering.gated:
            # A generator: its locals (the guards ``g<j>`` and every
            # temporary) live from one cycle to the next.  The loop body
            # keeps the plain tick's indentation.
            saved = " = ".join(f"g{j}" for j in range(partitions))
            before = (["def tick(v):"] + ([f"  {saved} = None"] if saved else [])
                      + ["  mems = yield", "  while 1:"])
            after = ["    mems = yield"]
        else:
            before, after = ["def tick(v, mems):"], []

        source = "\n".join(
            lowering.header
            + ["def settle(v, mems):"]
            + (_indent(settle.lines) or ["    pass"])
            + [""] + before
            + (_indent(head + blocks + tail) or ["    pass"]) + after
        )
        namespace = lowering.namespace()
        exec(compile(source, f"<{lowering.filename} {netlist.name}>", "exec"),
             namespace)
        if obs_trace.enabled():
            n_lines = source.count("\n") + 1
            obs_metrics.inc(f"{lowering.metric}.netlists")
            obs_metrics.observe(f"{lowering.metric}.source_lines", n_lines)
            span.set(signals=len(index_of), **lowering.attrs,
                     source_lines=n_lines,
                     cse_merged=settle.merged + tick.merged,
                     enable_groups=len(enables), partitions=partitions)
        return lowering.result(
            netlist=netlist,
            index_of=index_of,
            mem_index_of=lowering.mem_index_of,
            settle=namespace["settle"],
            tick=(_ticker(namespace["tick"]) if lowering.gated
                  else namespace["tick"]),
            source=source,
            fields=lowering.fields,
        )


# What a tick statement reads: a slot, a temporary, an enable, a next
# value, a write port's address or data, or the memories.  The names the
# namespace provides start with an underscore, and the packed lowering
# writes no keyword.
_READ = re.compile(r"v\[\d+\]|[A-Za-z_]\w*")


def _partition(region: list[str], first: int) -> tuple[list[str], int]:
    """Regroup one region's statements into partitions and guard them.

    A region is the tick's head (before the first block) or one enable
    block; every statement in it is ``name = code``.  A partition is a
    dataflow-connected group of statements in the region.  A guarded
    partition runs only when the values it reads from outside itself
    (``v`` slots, enables, the head's temporaries) differ from the ones
    saved in ``g<j>`` when it last ran; otherwise its names keep the
    values of that run.  A partition that reads memory is never guarded
    (a memory write changes no slot), nor is a lone statement, whose
    guard would cost about as much as its body.  Guards are numbered
    from ``first``; returns the region's new lines and the next number.
    """
    statements = [(name, [tok for tok in _READ.findall(code) if tok[0] != "_"],
                   line)
                  for line in region for name, code in [line.split(" = ", 1)]]
    count = first
    lines: list[str] = []
    for part in _components(statements):
        own = {name for name, _, _ in part}
        support = dict.fromkeys(tok for _, used, _ in part
                                for tok in used if tok not in own)
        body = [line for _, _, line in part]
        if len(part) == 1 or "mems" in support:
            lines += body
            continue
        lines += [f"k = {', '.join(support) or '()'}",
                  f"if k != g{count}:", f"    g{count} = k"]
        lines += _indent(body)
        count += 1
    return lines, count


def _components(region: list[tuple]) -> list[list[tuple]]:
    """The dataflow-connected statements of a region, in first-use order."""
    parent = list(range(len(region)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    at = {name: i for i, (name, _, _) in enumerate(region)}
    for i, (_name, used, _line) in enumerate(region):
        for tok in used:
            j = at.get(tok)
            if j is not None:
                parent[root(j)] = root(i)
    groups: dict[int, list[tuple]] = {}
    for i, stmt in enumerate(region):
        groups.setdefault(root(i), []).append(stmt)
    return list(groups.values())


def _ticker(make):
    """``tick(v, mems)`` that resumes the generator ``make(v)`` once a cycle.

    The generator's locals are the saved partition state.  It belongs to
    the value list it was started on, one simulator's: a call with
    another list, or the first call after one that raised (a generator
    that raised is dead), starts a fresh generator, whose first cycle
    runs every partition.
    """
    owner = resume = None

    def tick(v, mems):
        nonlocal owner, resume
        if v is not owner:
            gen = make(v)
            next(gen)
            owner, resume = v, gen.send
        try:
            resume(mems)
        except BaseException:
            owner = None
            raise

    return tick


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]
