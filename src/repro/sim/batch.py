"""Batch-vectorized netlist evaluation: B input blocks per settle/tick pass.

The scalar ``compiled`` engine walks one design instance per call.  This
module holds the netlist compiler's second lowering, :class:`PackedLowering`:
the compiler in :mod:`repro.sim.compile` (index maps, structural
common-subexpression elimination, the gated settle/tick assembly,
``exec``) turns the *same* levelized netlist
into a **lane-packed** evaluator, where every signal holds ``B`` independent
simulation lanes packed into one Python big integer at a fixed stride
``S = F + 1``::

    packed(sig) = sum(lane_value[i] << (i * S) for i in range(B))

The lane field ``F`` is the widest value that must be held whole: every
port and memory word, and every node that computes, with its operands.
A wider value only moves bits (concatenations, slices, muxes, zero
extensions; a 768-bit output bus, say), so :func:`split_wide` first cuts
it into signals and expressions of at most ``F`` bits, and the stride
follows the arithmetic, not the bus.  Nodes that touch no wide value are
shared with the input netlist; synthesis keeps reading that netlist.

One guard bit per lane (the ``+ 1``) is what makes carry-generating
operations safe: an add of two W-bit lanes peaks at ``2**(W+1) - 2`` and
the carry lands in the guard bit instead of the neighbouring lane.  The
generated code is pure stdlib int arithmetic — no numpy — and each emitted
operation preserves the invariant *every lane field is an exact masked
value and every guard bit is zero*:

* add/sub/neg: compute with the guard bit, then mask the lanes;
  subtraction adds a per-lane ``2**W`` bias first so no lane ever borrows
  from its neighbour;
* shifts by constants pre- or post-mask so bits spilling across the lane
  boundary are discarded (``shl`` masks the operand to ``W - c`` bits
  *before* shifting; ``lshr`` masks to ``W - c`` bits *after*);
* compares use the classic SWAR carry-out trick: ``a >= b`` is the guard
  bit of ``(a | rep(2**W)) - b``; equality is the carry out of
  ``(a ^ b) + rep(2**W - 1)``; signed orderings bias both operands by
  ``2**(W-1)`` first;
* muxes smear the packed 1-bit select into a per-lane mask with
  ``(sel << W) - sel`` (no bigint multiply) and blend both arms;
* registers tick in the compiler's enable groups: a group no lane
  enables is skipped, one every lane enables takes its next values
  directly, and only when the lanes disagree does each register merge
  per lane, through the smeared enable;
* the next values are computed by guarded partitions (``gated``): a
  dataflow-connected group of statements reruns only when a packed value
  it reads differs from the one it last ran on, so a drained pipeline
  stage costs one tuple compare per cycle.  The saved values belong to
  the simulator whose value list the tick runs on; a partition that
  reads memory runs every cycle;
* the few genuinely scalar ops (full-width multiply of two signals,
  variable-amount shifts, reduction xor, memory ports) fall back to a
  per-lane loop that reuses the reference semantics from
  :mod:`repro.rtl.ir`, so the batch engine is bit-exact by construction
  even where it is not vectorized.

One consumer sits on top of :func:`compile_batch`:
:class:`~repro.sim.Simulator` with ``engine="batch"``.  It keeps one
memory list per lane and hands them all to the packed code.  At one lane
a packed value *is* the plain value (a split signal's fields sit in slots
of their own and are reassembled on a peek), which is how
``verify --engine batch`` runs, and why its output is byte-identical to
``--engine compiled``.  At ``lanes=B``,
:meth:`StreamHarness.run_blocks <repro.axis.harness.StreamHarness.run_blocks>`
streams N blocks through the lanes (one settle per clock for all of
them); the serving tier's ``"sim"`` and ``"batch"`` engines and the
throughput benchmark use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.errors import SimulationError
from ..rtl.elaborate import FlatRegister, Netlist
from ..rtl.ir import (
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
    UnOp,
    UnOpKind,
    _eval_binop,
    _eval_unop,
    expr_children,
    graph,
    to_signed,
    with_children,
)
from ..rtl.module import Memory
from .compile import CompiledNetlist, Emitter, compile_lowered, index_maps

__all__ = ["BatchCompiled", "compile_batch"]


# ----------------------------------------------------------------------
# per-lane fallback helpers (installed in the compiled namespace)
# ----------------------------------------------------------------------

def _pl1(a: int, lanes: int, stride: int, la: int, fn) -> int:
    """Apply a scalar unary op lane by lane."""
    r = 0
    for i in range(lanes):
        sh = i * stride
        r |= fn((a >> sh) & la) << sh
    return r


def _pl2(a: int, b: int, lanes: int, stride: int, la: int, lb: int, fn) -> int:
    """Apply a scalar binary op lane by lane."""
    r = 0
    for i in range(lanes):
        sh = i * stride
        r |= fn((a >> sh) & la, (b >> sh) & lb) << sh
    return r


def _mrd(mem, addr: int, lanes: int, stride: int, la: int,
         depth: int, msk: int) -> int:
    """Per-lane asynchronous memory read (``mem`` is a list of lane lists)."""
    r = 0
    for i in range(lanes):
        sh = i * stride
        r |= (mem[i][((addr >> sh) & la) % depth] & msk) << sh
    return r


def _mwr(mem, en: int, addr: int, data: int, lanes: int, stride: int,
         la: int, ld: int, depth: int, msk: int) -> None:
    """Per-lane synchronous memory write commit."""
    for i in range(lanes):
        sh = i * stride
        if (en >> sh) & 1:
            mem[i][((addr >> sh) & la) % depth] = ((data >> sh) & ld) & msk


# ----------------------------------------------------------------------
# the wide-bus split (the packed lowering's netlist rewrite)
# ----------------------------------------------------------------------

def _moves_bits(node: Expr) -> bool:
    """Whether ``node`` only moves bits, so a wide one can be cut up."""
    return (isinstance(node, (Cat, Slice, Mux, Ref, Const))
            or isinstance(node, Ext) and not node.signed)


def _widths(netlist: Netlist) -> tuple[int, int]:
    """``(field, widest)``: the lane field width and the widest value.

    ``field`` is the widest value a lane must hold whole: every port and
    memory word, every node that computes (and its operands), and all a
    memory write port reads.  Only nodes that move bits can be wider;
    ``widest`` counts them too.
    """
    field = max([sig.width for sig in netlist.inputs + netlist.outputs]
                + [mem.width for mem in netlist.memories], default=1)
    writes = [root for mem in netlist.memories for write in mem.writes
              for root in (write.en, write.addr, write.data)]
    dag = graph(writes + netlist.roots())
    n_writes = dag.ends[len(writes) - 1] if writes else 0
    for node in dag.nodes[:n_writes]:
        field = max(field, node.width)
    widest = field
    for i in range(n_writes, len(dag.nodes)):
        node = dag.nodes[i]
        widest = max(widest, node.width)
        if not _moves_bits(node):
            field = max(field, node.width,
                        *(dag.nodes[j].width for j in dag.kids[i]))
    return field, widest


def _piece(expr: Expr, lo: int, width: int) -> Expr:
    """Bits ``[lo, lo + width)`` of ``expr`` as one node."""
    if lo == 0 and width == expr.width:
        return expr
    if isinstance(expr, Const):
        return Const(expr.value >> lo, width)
    if isinstance(expr, Slice):
        expr, lo = expr.a, expr.lo + lo
    return Slice(expr, lo + width - 1, lo)


def _bits(segments: Sequence[Expr], lo: int, width: int) -> tuple[Expr, ...]:
    """Bits ``[lo, lo + width)`` of a value held as LSB-first segments."""
    out = []
    at, hi = 0, lo + width
    for seg in segments:
        end = at + seg.width
        if end > lo:
            start = max(lo, at)
            out.append(_piece(seg, start - at, min(hi, end) - start))
            if end >= hi:
                break
        at = end
    return tuple(out)


def _join(pieces: Sequence[Expr]) -> Expr:
    """One node for LSB-first ``pieces``."""
    return pieces[0] if len(pieces) == 1 else Cat(tuple(reversed(pieces)))


class _Splitter:
    """Rewrites expressions so that no value is wider than ``field`` bits.

    A wide value becomes *segments*: narrow nodes, least significant
    first, whose widths add up to its width.  A wide constant stays one
    segment, since only slices of it are ever read.  A narrow node that
    reads no wide value is kept as is, so the split netlist shares it
    with the original one.
    """

    def __init__(self, field: int, fields: dict[Signal, tuple[Signal, ...]]):
        self.field = field
        self.fields = fields
        self._narrow: dict[int, Expr] = {}
        self._segments: dict[int, tuple[Expr, ...]] = {}
        self._split: dict[int, tuple[Expr, ...]] = {}

    def narrow(self, expr: Expr) -> Expr:
        """A node of at most ``field`` bits with no wide value under it."""
        got = self._narrow.get(id(expr))
        if got is None:
            got = self._narrow[id(expr)] = self._rebuild(expr)
        return got

    def split(self, expr: Expr) -> tuple[Expr, ...]:
        """``expr`` as fields of ``field`` bits, LSB first (the top one may be shorter)."""
        got = self._split.get(id(expr))
        if got is None:
            segments, step = self._pieces(expr), self.field
            got = self._split[id(expr)] = tuple(
                _join(_bits(segments, lo, min(step, expr.width - lo)))
                for lo in range(0, expr.width, step))
        return got

    def _pieces(self, expr: Expr) -> tuple[Expr, ...]:
        if expr.width <= self.field:
            return (self.narrow(expr),)
        got = self._segments.get(id(expr))
        if got is None:
            got = self._segments[id(expr)] = self._cut(expr)
        return got

    def _rebuild(self, expr: Expr) -> Expr:
        if isinstance(expr, Slice) and expr.a.width > self.field:
            return _join(_bits(self._pieces(expr.a), expr.lo, expr.width))
        kids = expr_children(expr)
        new = tuple(map(self.narrow, kids))
        if all(a is b for a, b in zip(new, kids)):
            return expr
        return with_children(expr, new)

    def _cut(self, expr: Expr) -> tuple[Expr, ...]:
        """The segments of a wide node; only bit-moving nodes are wide."""
        if isinstance(expr, Ref):
            return tuple(map(Ref, self.fields[expr.signal]))
        if isinstance(expr, Cat):
            return tuple(seg for part in reversed(expr.parts)
                         for seg in self._pieces(part))
        if isinstance(expr, Slice):
            return _bits(self._pieces(expr.a), expr.lo, expr.width)
        if isinstance(expr, Ext):  # zero-extension
            pad = expr.width - expr.a.width
            return self._pieces(expr.a) + ((Const(0, pad),) if pad else ())
        if isinstance(expr, Mux):
            sel = self.narrow(expr.sel)
            return tuple(t if t is f else Mux(sel, t, f) for t, f in
                         zip(self.split(expr.if_true), self.split(expr.if_false)))
        return (expr,)  # a wide Const


def split_wide(netlist: Netlist) -> tuple[Netlist, dict[Signal, tuple[Signal, ...]], int]:
    """Cut every value wider than the lane field into field-wide pieces.

    A lane field must hold the widest value it carries, but a wide bus
    that is only concatenated, sliced and multiplexed needs no field of
    its own width.  So the field is set by what computes (see
    :func:`_widths`), and every wider signal becomes one field signal per
    ``field`` bits, named ``name[hi:lo]``; slices and concatenations of
    fields replace the wide expressions.  Returns the rewritten netlist,
    the map from each split signal to its fields (LSB first) and the
    field width.  A netlist with nothing wider than its field comes back
    unchanged.  Synthesis never sees this netlist: it exists for
    simulation only.
    """
    field, widest = _widths(netlist)
    if widest == field:
        return netlist, {}, field
    fields: dict[Signal, tuple[Signal, ...]] = {}
    for sig in ([sig for sig, _expr in netlist.assigns]
                + [reg.signal for reg in netlist.registers]):
        if sig.width > field:
            fields[sig] = tuple(
                Signal(f"{sig.name}[{min(lo + field, sig.width) - 1}:{lo}]",
                       min(field, sig.width - lo))
                for lo in range(0, sig.width, field))
    cut = _Splitter(field, fields)
    out = Netlist(netlist.name, list(netlist.inputs), list(netlist.outputs),
                  memories=list(netlist.memories))
    for sig, expr in netlist.assigns:
        if sig in fields:
            out.assigns.extend(zip(fields[sig], cut.split(expr)))
        else:
            out.assigns.append((sig, cut.narrow(expr)))
    for reg in netlist.registers:
        en = None if reg.en is None else cut.narrow(reg.en)
        parts = fields.get(reg.signal)
        if parts is None:
            nxt = cut.narrow(reg.next)
            out.registers.append(
                reg if nxt is reg.next and en is reg.en
                else FlatRegister(reg.signal, nxt, reg.init, en))
            continue
        for part, nxt, lo in zip(parts, cut.split(reg.next),
                                 range(0, reg.signal.width, field)):
            init = (reg.init >> lo) & ((1 << part.width) - 1)
            out.registers.append(FlatRegister(part, nxt, init, en))
    return out, fields, field


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------

@dataclass(eq=False)
class BatchCompiled(CompiledNetlist):
    """The executable lane-packed form of a netlist.

    ``settle(values, mems)`` / ``tick(values, mems)`` mirror the scalar
    :class:`~repro.sim.compile.CompiledNetlist` contract, except every
    entry of ``values`` packs ``lanes`` lane fields at ``stride`` bits and
    ``mems`` holds one backing list *per lane*:
    ``mems[mem_index][lane][address]``.
    """

    lanes: int
    stride: int
    ones: int  # sum(1 << (i * stride)) — the packed all-lanes value 1


_LOGIC_OPS = {BinOpKind.AND: "&", BinOpKind.OR: "|", BinOpKind.XOR: "^"}
_SIGNED_TO_UNSIGNED = {
    BinOpKind.SLT: BinOpKind.ULT,
    BinOpKind.SLE: BinOpKind.ULE,
    BinOpKind.SGT: BinOpKind.UGT,
    BinOpKind.SGE: BinOpKind.UGE,
}


class PackedLowering:
    """The lane-packed lowering: ``lanes`` lanes per value at ``stride`` bits.

    Big constants and per-lane fallback closures are interned in the
    ``_K`` tuple of the compiled namespace, shared by settle and tick.
    """

    span = "sim.batch.compile"
    metric = "sim.batch"
    filename = "batch netlist"
    gated = True  # a tick of guarded partitions (see compile_lowered)

    def __init__(self, netlist: Netlist, lanes: int) -> None:
        # Code is generated from the split netlist, where nothing is
        # wider than the lane field; one guard bit per lane.
        self.netlist, self.fields, field = split_wide(netlist)
        self.index_of, self.mem_index_of = index_maps(self.netlist)
        self.lanes = lanes
        self.stride = field + 1
        self.ones = sum(1 << (i * self.stride) for i in range(lanes))
        self._objs: list[object] = []
        self._obj_of_int: dict[int, int] = {}
        self.header = [f"# batch-compiled netlist {netlist.name!r}: "
                       f"lanes={lanes}, stride={self.stride}"]
        self.attrs = {"lanes": lanes, "stride": self.stride}

    # -- constants -----------------------------------------------------
    def _lit(self, value: int) -> str:
        if -(1 << 32) < value < (1 << 32):
            return repr(value)
        idx = self._obj_of_int.get(value)
        if idx is None:
            idx = self._obj_of_int[value] = len(self._objs)
            self._objs.append(value)
        return f"_K[{idx}]"

    def _fn(self, f) -> str:
        self._objs.append(f)
        return f"_K[{len(self._objs) - 1}]"

    def _rep(self, value: int) -> str:
        """The packed constant with ``value`` in every lane."""
        return self._lit(value * self.ones)

    def _rmask(self, width: int) -> str:
        """The packed all-lanes mask ``(1 << width) - 1``."""
        return self._rep((1 << width) - 1)

    def smear(self, em: Emitter, sel: Expr) -> str:
        """A per-lane mask temp: all-ones where ``sel``'s lane is 1.

        The mask fills the whole ``stride - 1``-bit lane field, so one
        smear per distinct select expression serves every mux arm of any
        width (masking wider than the value is harmless — lane fields are
        exact).  ``(sel << k) - sel`` builds it with two linear bigint ops
        instead of a multiply.
        """
        k = self.stride - 1
        return em.derived(sel, lambda code: f"(({code}) << {k}) - ({code})")

    # -- the compiler's hooks ------------------------------------------
    operands = staticmethod(expr_children)

    def commit(self, en: str, pairs: list[tuple[str, str]]) -> list[str]:
        """Commit a group: plainly when every lane is enabled, else merged."""
        plain = [f"    {cur} = {nxt}" for cur, nxt in pairs]
        if self.lanes == 1:
            return [f"if {en}:"] + plain
        return ([f"if {en} == {self._lit(self.ones)}:"] + plain
                + [f"elif {en}:", f"    m = ({en} << {self.stride - 1}) - {en}"]
                + [f"    {cur} = ((({nxt}) ^ {cur}) & m) ^ {cur}"
                   for cur, nxt in pairs])

    def mem_write(self, name: str, mi: int, mem: Memory, write,
                  en: str, addr: str, data: str) -> tuple[list[str], list[str]]:
        la = self._lit((1 << write.addr.width) - 1)
        ld = self._lit((1 << write.data.width) - 1)
        msk = self._lit((1 << mem.width) - 1)
        return ([f"{name}a = {addr}", f"{name}d = {data}"],
                [f"_mwr(mems[{mi}], {en}, {name}a, {name}d, {self.lanes}, "
                 f"{self.stride}, {la}, {ld}, {mem.depth}, {msk})"])

    def namespace(self) -> dict[str, object]:
        return {"_K": tuple(self._objs), "_pl1": _pl1, "_pl2": _pl2,
                "_mrd": _mrd, "_mwr": _mwr}

    def result(self, **parts) -> BatchCompiled:
        return BatchCompiled(**parts, lanes=self.lanes, stride=self.stride,
                             ones=self.ones)

    # -- node dispatch -------------------------------------------------
    def node(self, em: Emitter, expr: Expr) -> str:
        if isinstance(expr, Const):
            return self._rep(expr.value)
        if isinstance(expr, Ref):
            return f"v[{self.index_of[expr.signal]}]"
        if isinstance(expr, BinOp):
            return self._binop(em, expr)
        if isinstance(expr, UnOp):
            return self._unop(em, expr)
        if isinstance(expr, Mux):
            smear = self.smear(em, expr.sel)
            if isinstance(expr.if_false, Const) and expr.if_false.value == 0:
                return f"(({em.code_for(expr.if_true)}) & {smear})"
            if isinstance(expr.if_true, Const) and expr.if_true.value == 0:
                f = em.atom(expr.if_false)
                return f"(({f}) ^ (({f}) & {smear}))"
            t = em.code_for(expr.if_true)
            f = em.atom(expr.if_false)
            return f"(((({t}) ^ ({f})) & {smear}) ^ ({f}))"
        if isinstance(expr, Cat):
            pieces = []
            shift = expr.width
            for part in expr.parts:
                shift -= part.width
                code = em.code_for(part)
                pieces.append(f"(({code}) << {shift})" if shift else f"({code})")
            return "(" + " | ".join(pieces) + ")"
        if isinstance(expr, Slice):
            a = em.code_for(expr.a)
            if expr.lo == 0:
                return f"(({a}) & {self._rmask(expr.width)})"
            return f"((({a}) >> {expr.lo}) & {self._rmask(expr.width)})"
        if isinstance(expr, Ext):
            wa, w = expr.a.width, expr.width
            if not expr.signed or w == wa:
                # Lane fields are already exact masked values, so both
                # zero-extension and same-width reinterpretation are no-ops.
                return em.code_for(expr.a)
            a = em.atom(expr.a)
            s = em.bind(f"((({a}) >> {wa - 1}) & {self._rep(1)})")
            return f"(({a}) | (({s} << {w}) - ({s} << {wa})))"
        if isinstance(expr, MemRead):
            addr = em.code_for(expr.addr)
            mem = expr.memory
            la = self._lit((1 << expr.addr.width) - 1)
            msk = self._lit((1 << expr.width) - 1)
            return (f"_mrd(mems[{self.mem_index_of[mem]}], ({addr}), "
                    f"{self.lanes}, {self.stride}, {la}, {mem.depth}, {msk})")
        raise TypeError(f"unknown expression node {type(expr).__name__}")

    def _binop(self, em: Emitter, expr: BinOp) -> str:
        kind, w = expr.kind, expr.width
        K = BinOpKind
        if kind is K.ADD:
            a, b = em.code_for(expr.a), em.code_for(expr.b)
            return f"(((({a}) + ({b}))) & {self._rmask(w)})"
        if kind is K.SUB:
            a, b = em.code_for(expr.a), em.code_for(expr.b)
            return (f"((((({a}) + {self._rep(1 << w)}) - ({b}))) "
                    f"& {self._rmask(w)})")
        if kind in _LOGIC_OPS:
            a, b = em.code_for(expr.a), em.code_for(expr.b)
            return f"(({a}) {_LOGIC_OPS[kind]} ({b}))"
        if kind is K.MUL:
            # A constant factor multiplies every lane in place: the full
            # product of a W_a-bit lane and the constant is < 2**width,
            # which fits inside the lane, so one bigint multiply does all
            # lanes at once.  Two non-constant operands would need a
            # 2*width partial product — per-lane fallback.
            if isinstance(expr.a, Const) and isinstance(expr.b, Const):
                return self._rep((expr.a.value * expr.b.value)
                                 & ((1 << w) - 1))
            if isinstance(expr.b, Const):
                return f"(({em.code_for(expr.a)}) * {expr.b.value})"
            if isinstance(expr.a, Const):
                return f"(({em.code_for(expr.b)}) * {expr.a.value})"
            return self._fallback2(em, expr)
        if kind is K.MULS:
            # Signed multiply by a constant, vectorized: with s the packed
            # sign bits of the variable operand and sc the signed constant,
            #   sx(a)*sc = a*|sc| - s*(|sc| << wa)   (sc >= 0)
            #            = s*(|sc| << wa) - a*|sc|   (sc < 0)
            # Both products stay below 2**(w-1) per lane (a < 2**wa,
            # |sc| <= 2**(wb-1)), so a whole-vector multiply by the scalar
            # is exact, and the difference uses the same +2**w bias as SUB.
            ca, cb = isinstance(expr.a, Const), isinstance(expr.b, Const)
            if ca and cb:
                val = (to_signed(expr.a.value, expr.a.width)
                       * to_signed(expr.b.value, expr.b.width))
                return self._rep(val & ((1 << w) - 1))
            if ca or cb:
                var, const = (expr.b, expr.a) if ca else (expr.a, expr.b)
                sc = to_signed(const.value, const.width)
                if sc == 0:
                    return self._rep(0)
                wa = var.width
                a = em.atom(var)
                mag = abs(sc)
                p = a if mag == 1 else em.bind(f"(({a}) * {self._lit(mag)})")
                s = em.bind(f"((({a}) >> {wa - 1}) & {self._rep(1)})")
                q = em.bind(f"(({s}) * {self._lit(mag << wa)})")
                hi, lo = (q, p) if sc < 0 else (p, q)
                return (f"(((({hi}) + {self._rep(1 << w)}) - ({lo})) "
                        f"& {self._rmask(w)})")
            return self._fallback2(em, expr)
        if kind in (K.SHL, K.LSHR, K.ASHR):
            if not isinstance(expr.b, Const):
                return self._fallback2(em, expr)
            c = expr.b.value
            if kind is K.SHL:
                if c >= w:
                    return "0"
                if c == 0:
                    return em.code_for(expr.a)
                a = em.code_for(expr.a)
                return f"((({a}) & {self._rmask(w - c)}) << {c})"
            if kind is K.LSHR:
                if c >= w:
                    return "0"
                if c == 0:
                    return em.code_for(expr.a)
                a = em.code_for(expr.a)
                return f"((({a}) >> {c}) & {self._rmask(w - c)})"
            shift = min(c, w - 1)
            if shift == 0:
                return em.code_for(expr.a)
            a = em.atom(expr.a)
            s = em.bind(f"((({a}) >> {w - 1}) & {self._rep(1)})")
            logical = f"((({a}) >> {shift}) & {self._rmask(w - shift)})"
            fill = f"(({s} << {w}) - ({s} << {w - shift}))"
            return f"({logical} | {fill})"
        # Comparisons (result width 1).
        wa = expr.a.width
        if kind in _SIGNED_TO_UNSIGNED:
            bias = self._rep(1 << (wa - 1))
            a = f"(({em.code_for(expr.a)}) ^ {bias})"
            b = f"(({em.code_for(expr.b)}) ^ {bias})"
            kind = _SIGNED_TO_UNSIGNED[kind]
        else:
            a = f"({em.code_for(expr.a)})"
            b = f"({em.code_for(expr.b)})"
        one = self._rep(1)
        if kind is K.EQ:
            return (f"(((((({a}) ^ ({b})) + {self._rmask(wa)}) >> {wa}) "
                    f"& {one}) ^ {one})")
        if kind is K.NE:
            return (f"(((((({a}) ^ ({b})) + {self._rmask(wa)}) >> {wa}) "
                    f"& {one}))")
        if kind in (K.UGT, K.ULE):
            a, b = b, a
            kind = K.ULT if kind is K.UGT else K.UGE
        # a >= b per lane == carry out of (a + 2**wa) - b.
        uge = (f"((((({a}) | {self._rep(1 << wa)}) - ({b})) >> {wa}) "
               f"& {one})")
        if kind is K.UGE:
            return f"({uge})"
        return f"(({uge}) ^ {one})"

    def _unop(self, em: Emitter, expr: UnOp) -> str:
        kind, wa = expr.kind, expr.a.width
        a = em.code_for(expr.a)
        one = self._rep(1)
        if kind is UnOpKind.NOT:
            return f"(({a}) ^ {self._rmask(wa)})"
        if kind is UnOpKind.NEG:
            return f"(({self._rep(1 << wa)} - ({a})) & {self._rmask(wa)})"
        if kind is UnOpKind.REDOR:
            return f"(((({a}) + {self._rmask(wa)}) >> {wa}) & {one})"
        if kind is UnOpKind.REDAND:
            return (f"((((((({a}) ^ {self._rmask(wa)})) + {self._rmask(wa)}) "
                    f">> {wa}) & {one}) ^ {one})")
        if kind is UnOpKind.REDXOR:
            f = self._fn(lambda x, _e=expr: _eval_unop(_e, x))
            la = self._lit((1 << wa) - 1)
            return f"_pl1(({a}), {self.lanes}, {self.stride}, {la}, {f})"
        raise TypeError(f"unknown unop {kind}")

    def _fallback2(self, em: Emitter, expr: BinOp) -> str:
        a, b = em.code_for(expr.a), em.code_for(expr.b)
        f = self._fn(lambda x, y, _e=expr: _eval_binop(_e, x, y))
        la = self._lit((1 << expr.a.width) - 1)
        lb = self._lit((1 << expr.b.width) - 1)
        return (f"_pl2(({a}), ({b}), {self.lanes}, {self.stride}, "
                f"{la}, {lb}, {f})")


def compile_batch(netlist: Netlist, lanes: int) -> BatchCompiled:
    """Compile ``netlist`` into lane-packed ``settle``/``tick`` functions.

    The code runs on :func:`split_wide`'s netlist (the result's
    ``netlist``); ``fields`` maps each split signal to its field signals.
    """
    if lanes < 1:
        raise SimulationError(f"batch compilation needs lanes >= 1, got {lanes}")
    return compile_lowered(netlist, PackedLowering, lanes=lanes)
