"""Expression IR for register-transfer-level hardware.

Every expression node carries an explicit result ``width``; nothing is
inferred at this level (frontends implement their own width rules and lower
to this IR).  Semantics are defined over unsigned bit patterns with explicit
signed variants where the interpretation matters (``MULS``, ``SLT``,
``ASHR``, ``SEXT``).

Two evaluators are provided and kept in lock-step by the test suite:

* :func:`eval_expr` — a straightforward recursive interpreter, used as the
  reference semantics (the ``interp`` engine) and for cross-checking;
* :func:`emit_py_node` — Python code for one node given its operands'
  code.  It is the *scalar lowering* of the simulator compiler
  (:mod:`repro.sim.compile`), which calls it once per node so it can
  hoist shared subexpressions; :func:`emit_py` is the plain recursion
  over it for a whole tree.  The lane-packed lowering lives in
  :mod:`repro.sim.batch`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.bits import to_signed
from ..core.errors import WidthError

__all__ = [
    "BinOpKind",
    "UnOpKind",
    "Expr",
    "Const",
    "Ref",
    "BinOp",
    "UnOp",
    "Mux",
    "Cat",
    "Slice",
    "Ext",
    "MemRead",
    "Signal",
    "eval_expr",
    "emit_py",
    "emit_py_node",
    "emit_operands",
    "distinct_nodes",
    "expr_children",
    "node_key",
    "with_children",
    "expr_signals",
    "expr_mem_reads",
    "expr_size",
]


class BinOpKind(enum.Enum):
    """Binary operator kinds; the comment gives the width rule."""

    ADD = "add"      # (W, W) -> W, wrap
    SUB = "sub"      # (W, W) -> W, wrap
    MUL = "mul"      # (Wa, Wb) -> Wa + Wb, unsigned full product
    MULS = "muls"    # (Wa, Wb) -> Wa + Wb, signed full product
    AND = "and"      # (W, W) -> W
    OR = "or"        # (W, W) -> W
    XOR = "xor"      # (W, W) -> W
    SHL = "shl"      # (W, any) -> W, zero fill
    LSHR = "lshr"    # (W, any) -> W, zero fill
    ASHR = "ashr"    # (W, any) -> W, sign fill
    EQ = "eq"        # (W, W) -> 1
    NE = "ne"        # (W, W) -> 1
    ULT = "ult"      # (W, W) -> 1
    ULE = "ule"      # (W, W) -> 1
    UGT = "ugt"      # (W, W) -> 1
    UGE = "uge"      # (W, W) -> 1
    SLT = "slt"      # (W, W) -> 1, two's complement
    SLE = "sle"      # (W, W) -> 1
    SGT = "sgt"      # (W, W) -> 1
    SGE = "sge"      # (W, W) -> 1


class UnOpKind(enum.Enum):
    NOT = "not"      # W -> W, bitwise complement
    NEG = "neg"      # W -> W, two's complement negate
    REDOR = "redor"  # W -> 1, reduction OR
    REDAND = "redand"  # W -> 1, reduction AND
    REDXOR = "redxor"  # W -> 1, reduction XOR

_SAME_WIDTH_BINOPS = {
    BinOpKind.ADD, BinOpKind.SUB, BinOpKind.AND, BinOpKind.OR, BinOpKind.XOR,
    BinOpKind.EQ, BinOpKind.NE, BinOpKind.ULT, BinOpKind.ULE, BinOpKind.UGT,
    BinOpKind.UGE, BinOpKind.SLT, BinOpKind.SLE, BinOpKind.SGT, BinOpKind.SGE,
}
_COMPARE_BINOPS = {
    BinOpKind.EQ, BinOpKind.NE, BinOpKind.ULT, BinOpKind.ULE, BinOpKind.UGT,
    BinOpKind.UGE, BinOpKind.SLT, BinOpKind.SLE, BinOpKind.SGT, BinOpKind.SGE,
}
_SHIFT_BINOPS = {BinOpKind.SHL, BinOpKind.LSHR, BinOpKind.ASHR}
_MUL_BINOPS = {BinOpKind.MUL, BinOpKind.MULS}


@dataclass(frozen=True, eq=False)
class Signal:
    """A named wire of fixed width.

    Signals are created through :class:`repro.rtl.module.Module`; identity
    (not name) distinguishes them, so two modules may both have a ``data``
    signal without ambiguity.
    """

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise WidthError(f"signal {self.name!r} must have positive width")

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, {self.width})"


class Expr:
    """Base class for expression nodes.  All nodes expose ``.width``."""

    __slots__ = ()
    width: int


@dataclass(frozen=True, eq=False)
class Const(Expr):
    """An integer literal of explicit width (stored masked, unsigned)."""

    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise WidthError("Const width must be positive")
        object.__setattr__(self, "value", self.value & ((1 << self.width) - 1))


@dataclass(frozen=True, eq=False)
class Ref(Expr):
    """A reference to a signal's current value."""

    signal: Signal

    @property
    def width(self) -> int:
        return self.signal.width


@dataclass(frozen=True, eq=False)
class BinOp(Expr):
    kind: BinOpKind
    a: Expr
    b: Expr
    width: int = field(init=False)

    def __post_init__(self) -> None:
        kind, a, b = self.kind, self.a, self.b
        if kind in _SAME_WIDTH_BINOPS and a.width != b.width:
            raise WidthError(
                f"{kind.value} operand widths differ: {a.width} vs {b.width}"
            )
        if kind in _COMPARE_BINOPS:
            width = 1
        elif kind in _MUL_BINOPS:
            width = a.width + b.width
        else:  # ADD/SUB/logic/shift keep the left operand's width
            width = a.width
        object.__setattr__(self, "width", width)


@dataclass(frozen=True, eq=False)
class UnOp(Expr):
    kind: UnOpKind
    a: Expr
    width: int = field(init=False)

    def __post_init__(self) -> None:
        width = 1 if self.kind in (UnOpKind.REDOR, UnOpKind.REDAND, UnOpKind.REDXOR) else self.a.width
        object.__setattr__(self, "width", width)


@dataclass(frozen=True, eq=False)
class Mux(Expr):
    """``sel ? if_true : if_false`` — ``sel`` is 1 bit, arms share a width."""

    sel: Expr
    if_true: Expr
    if_false: Expr

    def __post_init__(self) -> None:
        if self.sel.width != 1:
            raise WidthError(f"mux select must be 1 bit, got {self.sel.width}")
        if self.if_true.width != self.if_false.width:
            raise WidthError(
                f"mux arm widths differ: {self.if_true.width} vs {self.if_false.width}"
            )

    @property
    def width(self) -> int:
        return self.if_true.width


@dataclass(frozen=True, eq=False)
class Cat(Expr):
    """Concatenation, MSB-first (Verilog ``{a, b, c}`` order)."""

    parts: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise WidthError("Cat requires at least one part")

    @property
    def width(self) -> int:
        return sum(part.width for part in self.parts)


@dataclass(frozen=True, eq=False)
class Slice(Expr):
    """Bit slice ``a[hi:lo]``, both bounds inclusive, Verilog style."""

    a: Expr
    hi: int
    lo: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi < self.a.width:
            raise WidthError(
                f"slice [{self.hi}:{self.lo}] out of range for width {self.a.width}"
            )

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True, eq=False)
class Ext(Expr):
    """Zero- or sign-extension to a strictly larger (or equal) width."""

    a: Expr
    width: int
    signed: bool

    def __post_init__(self) -> None:
        if self.width < self.a.width:
            raise WidthError(
                f"extension to {self.width} narrower than operand {self.a.width}"
            )


@dataclass(frozen=True, eq=False)
class MemRead(Expr):
    """Asynchronous (combinational) read from a memory.

    ``memory`` is a :class:`repro.rtl.module.Memory`; typed loosely here to
    avoid a circular import.
    """

    memory: object
    addr: Expr

    @property
    def width(self) -> int:
        return self.memory.width  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# reference interpreter
# ----------------------------------------------------------------------

def eval_expr(
    expr: Expr,
    read_signal: Callable[[Signal], int],
    read_mem: Callable[[object, int], int] | None = None,
) -> int:
    """Evaluate ``expr`` to a masked unsigned integer.

    ``read_signal`` maps a :class:`Signal` to its current unsigned value;
    ``read_mem`` maps ``(memory, address)`` to the stored word and is only
    required when the expression contains :class:`MemRead` nodes.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        return read_signal(expr.signal) & ((1 << expr.width) - 1)
    if isinstance(expr, BinOp):
        a = eval_expr(expr.a, read_signal, read_mem)
        b = eval_expr(expr.b, read_signal, read_mem)
        return _eval_binop(expr, a, b)
    if isinstance(expr, UnOp):
        a = eval_expr(expr.a, read_signal, read_mem)
        return _eval_unop(expr, a)
    if isinstance(expr, Mux):
        sel = eval_expr(expr.sel, read_signal, read_mem)
        arm = expr.if_true if sel else expr.if_false
        return eval_expr(arm, read_signal, read_mem)
    if isinstance(expr, Cat):
        value = 0
        for part in expr.parts:
            value = (value << part.width) | eval_expr(part, read_signal, read_mem)
        return value
    if isinstance(expr, Slice):
        value = eval_expr(expr.a, read_signal, read_mem)
        return (value >> expr.lo) & ((1 << expr.width) - 1)
    if isinstance(expr, Ext):
        value = eval_expr(expr.a, read_signal, read_mem)
        if expr.signed:
            return to_signed(value, expr.a.width) & ((1 << expr.width) - 1)
        return value
    if isinstance(expr, MemRead):
        if read_mem is None:
            raise WidthError("expression contains MemRead but no read_mem given")
        addr = eval_expr(expr.addr, read_signal, read_mem)
        return read_mem(expr.memory, addr) & ((1 << expr.width) - 1)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _eval_binop(expr: BinOp, a: int, b: int) -> int:
    kind = expr.kind
    msk = (1 << expr.width) - 1
    if kind is BinOpKind.ADD:
        return (a + b) & msk
    if kind is BinOpKind.SUB:
        return (a - b) & msk
    if kind is BinOpKind.MUL:
        return (a * b) & msk
    if kind is BinOpKind.MULS:
        sa = to_signed(a, expr.a.width)
        sb = to_signed(b, expr.b.width)
        return (sa * sb) & msk
    if kind is BinOpKind.AND:
        return a & b
    if kind is BinOpKind.OR:
        return a | b
    if kind is BinOpKind.XOR:
        return a ^ b
    if kind is BinOpKind.SHL:
        return (a << b) & msk if b < expr.width else 0
    if kind is BinOpKind.LSHR:
        return a >> b if b < expr.width else 0
    if kind is BinOpKind.ASHR:
        sa = to_signed(a, expr.a.width)
        shift = min(b, expr.width - 1)
        return (sa >> shift) & msk
    if kind is BinOpKind.EQ:
        return int(a == b)
    if kind is BinOpKind.NE:
        return int(a != b)
    if kind is BinOpKind.ULT:
        return int(a < b)
    if kind is BinOpKind.ULE:
        return int(a <= b)
    if kind is BinOpKind.UGT:
        return int(a > b)
    if kind is BinOpKind.UGE:
        return int(a >= b)
    sa = to_signed(a, expr.a.width)
    sb = to_signed(b, expr.b.width)
    if kind is BinOpKind.SLT:
        return int(sa < sb)
    if kind is BinOpKind.SLE:
        return int(sa <= sb)
    if kind is BinOpKind.SGT:
        return int(sa > sb)
    if kind is BinOpKind.SGE:
        return int(sa >= sb)
    raise TypeError(f"unknown binop {kind}")


def _eval_unop(expr: UnOp, a: int) -> int:
    kind = expr.kind
    msk = (1 << expr.a.width) - 1
    if kind is UnOpKind.NOT:
        return ~a & msk
    if kind is UnOpKind.NEG:
        return -a & msk
    if kind is UnOpKind.REDOR:
        return int(a != 0)
    if kind is UnOpKind.REDAND:
        return int(a == msk)
    if kind is UnOpKind.REDXOR:
        return bin(a).count("1") & 1
    raise TypeError(f"unknown unop {kind}")


# ----------------------------------------------------------------------
# Python code emission (the scalar lowering of the simulator compiler)
# ----------------------------------------------------------------------

def emit_py(
    expr: Expr,
    ref_of: Callable[[Signal], str],
    mem_of: Callable[[object], str] | None = None,
) -> str:
    """Emit a Python expression string computing the whole tree ``expr``.

    ``ref_of`` maps a signal to the Python expression holding its unsigned
    value; ``mem_of`` maps a memory object to the Python name of its backing
    list.  The generated code is plain integer arithmetic: it calls no
    helper, so it runs in an empty namespace.  Every value it reads must be
    masked to its width (signals, memory words), as every value it computes
    is; signed operations rely on it.
    """
    operands = [emit_py(child, ref_of, mem_of) for child in emit_operands(expr)]
    return emit_py_node(expr, operands, ref_of, mem_of)


def emit_py_node(
    expr: Expr,
    operands: Sequence[str],
    ref_of: Callable[[Signal], str],
    mem_of: Callable[[object], str] | None = None,
) -> str:
    """Emit Python code for the one node ``expr``.

    ``operands`` holds the code of the nodes :func:`emit_operands` lists
    (the node's children, in :func:`expr_children` order, but for a signed
    :class:`Ext`), so a caller can substitute hoisted temporaries for
    shared children (the simulator compiler does).  What is known at emit
    time is folded: constant operands of signed operations, constant shift
    amounts and sign extensions of constants.
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Ref):
        return ref_of(expr.signal)
    if isinstance(expr, BinOp):
        return _emit_binop(expr, *operands)
    if isinstance(expr, UnOp):
        (a,) = operands
        msk = (1 << expr.a.width) - 1
        if expr.kind is UnOpKind.NOT:
            return f"(~({a}) & {msk})"
        if expr.kind is UnOpKind.NEG:
            return f"(-({a}) & {msk})"
        if expr.kind is UnOpKind.REDOR:
            return f"(1 if ({a}) else 0)"
        if expr.kind is UnOpKind.REDAND:
            return f"(1 if ({a}) == {msk} else 0)"
        if expr.kind is UnOpKind.REDXOR:
            return f"(({a}).bit_count() & 1)"
        raise TypeError(f"unknown unop {expr.kind}")
    if isinstance(expr, Mux):
        sel, t, f = operands
        return f"(({t}) if ({sel}) else ({f}))"
    if isinstance(expr, Cat):
        pieces = []
        shift = expr.width
        for part, code in zip(expr.parts, operands):
            shift -= part.width
            pieces.append(f"(({code}) << {shift})" if shift else f"({code})")
        return "(" + " | ".join(pieces) + ")"
    if isinstance(expr, Slice):
        (a,) = operands
        msk = (1 << expr.width) - 1
        if expr.lo == 0:
            return f"(({a}) & {msk})"
        return f"((({a}) >> {expr.lo}) & {msk})"
    if isinstance(expr, Ext):
        (a,) = operands
        (source,) = emit_operands(expr)
        if not expr.signed or source.width == expr.width:
            return f"({a})"
        msk = (1 << expr.width) - 1
        if isinstance(source, Const):
            return repr(to_signed(source.value, source.width) & msk)
        return f"({_signed(source, a)} & {msk})"
    if isinstance(expr, MemRead):
        if mem_of is None:
            raise WidthError("expression contains MemRead but no mem_of given")
        (addr,) = operands
        depth = expr.memory.depth  # type: ignore[attr-defined]
        return f"({mem_of(expr.memory)}[({addr}) % {depth}])"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def emit_operands(expr: Expr) -> tuple[Expr, ...]:
    """The nodes whose code :func:`emit_py_node` takes as ``expr``'s operands.

    These are :func:`expr_children`, except that a signed :class:`Ext`
    takes the node whose sign bit it replicates: sign-extending a sign
    extension, or an :class:`Ext` that keeps the width, is one sign
    extension of the inner operand, so a chain is emitted as one.
    """
    if not (isinstance(expr, Ext) and expr.signed):
        return expr_children(expr)
    a = expr.a
    while isinstance(a, Ext) and (a.signed or a.width == a.a.width):
        a = a.a
    return (a,)


def _signed(expr: Expr, code: str) -> str:
    """Code for the two's-complement value of ``expr``, whose unsigned code is ``code``.

    ``(x ^ S) - S`` with ``S = 2**(w - 1)`` flips the sign bit's weight
    from ``+S`` to ``-S``; it is exact because ``x`` is masked to ``w``
    bits.  A constant is its signed literal.
    """
    if isinstance(expr, Const):
        return repr(to_signed(expr.value, expr.width))
    sign = 1 << (expr.width - 1)
    return f"((({code}) ^ {sign}) - {sign})"


def _emit_binop(expr: BinOp, a: str, b: str) -> str:
    kind = expr.kind
    msk = (1 << expr.width) - 1
    # A constant shift amount needs no run-time range check.
    amount = expr.b.value if isinstance(expr.b, Const) else None
    if kind is BinOpKind.ADD:
        return f"((({a}) + ({b})) & {msk})"
    if kind is BinOpKind.SUB:
        return f"((({a}) - ({b})) & {msk})"
    if kind is BinOpKind.MUL:
        return f"((({a}) * ({b})) & {msk})"
    if kind is BinOpKind.MULS:
        return f"(({_signed(expr.a, a)} * {_signed(expr.b, b)}) & {msk})"
    if kind is BinOpKind.AND:
        return f"(({a}) & ({b}))"
    if kind is BinOpKind.OR:
        return f"(({a}) | ({b}))"
    if kind is BinOpKind.XOR:
        return f"(({a}) ^ ({b}))"
    if kind is BinOpKind.SHL:
        if amount is not None:
            return f"((({a}) << {b}) & {msk})" if amount < expr.width else "0"
        return f"(((({a}) << ({b})) & {msk}) if ({b}) < {expr.width} else 0)"
    if kind is BinOpKind.LSHR:
        if amount is not None:
            return f"(({a}) >> {b})" if amount < expr.width else "0"
        return f"((({a}) >> ({b})) if ({b}) < {expr.width} else 0)"
    if kind is BinOpKind.ASHR:
        top = expr.width - 1
        if amount is not None:
            return f"(({_signed(expr.a, a)} >> {min(amount, top)}) & {msk})"
        return (f"(({_signed(expr.a, a)} >> "
                f"(({b}) if ({b}) < {top} else {top})) & {msk})")
    if kind is BinOpKind.EQ:
        return f"(1 if ({a}) == ({b}) else 0)"
    if kind is BinOpKind.NE:
        return f"(1 if ({a}) != ({b}) else 0)"
    if kind is BinOpKind.ULT:
        return f"(1 if ({a}) < ({b}) else 0)"
    if kind is BinOpKind.ULE:
        return f"(1 if ({a}) <= ({b}) else 0)"
    if kind is BinOpKind.UGT:
        return f"(1 if ({a}) > ({b}) else 0)"
    if kind is BinOpKind.UGE:
        return f"(1 if ({a}) >= ({b}) else 0)"
    sa, sb = _signed(expr.a, a), _signed(expr.b, b)
    if kind is BinOpKind.SLT:
        return f"(1 if {sa} < {sb} else 0)"
    if kind is BinOpKind.SLE:
        return f"(1 if {sa} <= {sb} else 0)"
    if kind is BinOpKind.SGT:
        return f"(1 if {sa} > {sb} else 0)"
    if kind is BinOpKind.SGE:
        return f"(1 if {sa} >= {sb} else 0)"
    raise TypeError(f"unknown binop {kind}")


# ----------------------------------------------------------------------
# structural queries
# ----------------------------------------------------------------------

def expr_children(expr: Expr) -> tuple[Expr, ...]:
    """The direct operands of ``expr``, in evaluation order."""
    if isinstance(expr, BinOp):
        return (expr.a, expr.b)
    if isinstance(expr, (Slice, Ext, UnOp)):
        return (expr.a,)
    if isinstance(expr, Mux):
        return (expr.sel, expr.if_true, expr.if_false)
    if isinstance(expr, Cat):
        return expr.parts
    if isinstance(expr, MemRead):
        return (expr.addr,)
    return ()


def node_key(expr: Expr, kids: tuple) -> tuple:
    """The structure of ``expr`` over ``kids``, its operands' identities.

    Two nodes with equal keys compute the same value, so a pass that keys
    nodes by it merges equal structures built as distinct objects.  The
    caller says what identifies an operand: the optimizer passes the
    ``id`` of each canonical child, the simulator compiler its value
    number.
    """
    t = type(expr)
    if t is Const:
        return (t, expr.value, expr.width)
    if t is Ref:
        return (t, expr.signal)
    if t is BinOp or t is UnOp:
        return (t, expr.kind, kids)
    if t is Slice:
        return (t, expr.hi, expr.lo, kids)
    if t is Ext:
        return (t, expr.width, expr.signed, kids)
    if t is MemRead:
        return (t, expr.memory, kids)
    return (t, kids)  # Mux, Cat


def with_children(expr: Expr, kids: Sequence[Expr]) -> Expr:
    """A copy of ``expr`` over new operands (in :func:`expr_children` order).

    Leaves (:class:`Const`, :class:`Ref`) have no operands to replace.
    """
    if isinstance(expr, BinOp):
        return BinOp(expr.kind, *kids)
    if isinstance(expr, UnOp):
        return UnOp(expr.kind, *kids)
    if isinstance(expr, Mux):
        return Mux(*kids)
    if isinstance(expr, Cat):
        return Cat(tuple(kids))
    if isinstance(expr, Slice):
        return Slice(*kids, expr.hi, expr.lo)
    if isinstance(expr, Ext):
        return Ext(*kids, expr.width, expr.signed)
    if isinstance(expr, MemRead):
        return MemRead(expr.memory, *kids)
    raise TypeError(f"no operands to replace in {type(expr).__name__}")


def distinct_nodes(expr: Expr, seen: set[int] | None = None):
    """Yield each node *object* of the DAG under ``expr`` once, pre-order.

    Frontends share subexpressions heavily, so a tree walk would cost the
    number of paths; this one costs the number of distinct nodes.  Passing
    one ``seen`` set (of node ids) across calls skips nodes already yielded
    for earlier roots, making a whole-netlist pass linear too.
    """
    if seen is None:
        seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        yield node
        stack.extend(reversed(expr_children(node)))


def expr_signals(expr: Expr, out: set[Signal] | None = None) -> set[Signal]:
    """Collect every signal read by ``expr`` (transitively)."""
    if out is None:
        out = set()
    for node in distinct_nodes(expr):
        if isinstance(node, Ref):
            out.add(node.signal)
    return out


def expr_mem_reads(expr: Expr, out: list[MemRead] | None = None) -> list[MemRead]:
    """Collect the distinct :class:`MemRead` nodes in ``expr`` (pre-order).

    A node object reached along several paths is listed once.
    """
    if out is None:
        out = []
    out.extend(node for node in distinct_nodes(expr) if isinstance(node, MemRead))
    return out


def expr_size(expr: Expr) -> int:
    """Number of nodes in the expression tree (used by tests and reports)."""
    if isinstance(expr, (Const, Ref)):
        return 1
    if isinstance(expr, BinOp):
        return 1 + expr_size(expr.a) + expr_size(expr.b)
    if isinstance(expr, UnOp):
        return 1 + expr_size(expr.a)
    if isinstance(expr, Mux):
        return 1 + expr_size(expr.sel) + expr_size(expr.if_true) + expr_size(expr.if_false)
    if isinstance(expr, Cat):
        return 1 + sum(expr_size(part) for part in expr.parts)
    if isinstance(expr, (Slice, Ext)):
        return 1 + expr_size(expr.a)
    if isinstance(expr, MemRead):
        return 1 + expr_size(expr.addr)
    raise TypeError(f"unknown expression node {type(expr).__name__}")
