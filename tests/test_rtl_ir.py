"""Tests for the RTL expression IR: width rules and both evaluators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bits import to_signed
from repro.core.errors import WidthError
from repro.rtl import ops
from repro.rtl.ir import (
    BinOp,
    BinOpKind,
    Cat,
    Const,
    Ext,
    MemRead,
    Mux,
    Ref,
    Signal,
    Slice,
    UnOp,
    UnOpKind,
    emit_py,
    eval_expr,
    expr_children,
    expr_signals,
    expr_size,
    graph,
)


def evaluate(expr, env=None):
    """Evaluate with the reference interpreter against a name->value env."""
    env = env or {}
    return eval_expr(expr, lambda sig: env[sig.name])


def evaluate_compiled(expr, env=None):
    """Evaluate via the emitted Python code path, which needs no helper."""
    env = env or {}
    code = emit_py(expr, lambda sig: f"env[{sig.name!r}]")
    return eval(code, {"env": env})


def both(expr, env=None):
    interp = evaluate(expr, env)
    compiled = evaluate_compiled(expr, env)
    assert interp == compiled, f"interpreter {interp} != compiled {compiled}"
    return interp


class TestConst:
    def test_masks_value(self):
        assert Const(0x1FF, 8).value == 0xFF

    def test_negative_value_wraps(self):
        assert Const(-1, 8).value == 0xFF

    def test_positive_width_required(self):
        with pytest.raises(WidthError):
            Const(0, 0)


class TestWidthRules:
    def test_add_requires_equal_widths(self):
        with pytest.raises(WidthError):
            BinOp(BinOpKind.ADD, Const(0, 4), Const(0, 5))

    def test_add_keeps_width(self):
        assert BinOp(BinOpKind.ADD, Const(0, 4), Const(0, 4)).width == 4

    def test_mul_width_is_sum(self):
        assert BinOp(BinOpKind.MUL, Const(0, 4), Const(0, 6)).width == 10

    def test_compare_width_is_one(self):
        assert BinOp(BinOpKind.SLT, Const(0, 8), Const(0, 8)).width == 1

    def test_shift_allows_mixed_widths(self):
        assert BinOp(BinOpKind.SHL, Const(0, 8), Const(0, 3)).width == 8

    def test_mux_needs_one_bit_select(self):
        with pytest.raises(WidthError):
            Mux(Const(0, 2), Const(0, 4), Const(0, 4))

    def test_mux_needs_equal_arms(self):
        with pytest.raises(WidthError):
            Mux(Const(0, 1), Const(0, 4), Const(0, 5))

    def test_cat_width_is_sum(self):
        assert Cat((Const(0, 3), Const(0, 5))).width == 8

    def test_cat_needs_parts(self):
        with pytest.raises(WidthError):
            Cat(())

    def test_slice_bounds_checked(self):
        with pytest.raises(WidthError):
            Slice(Const(0, 4), 4, 0)
        with pytest.raises(WidthError):
            Slice(Const(0, 4), 1, 2)

    def test_ext_cannot_narrow(self):
        with pytest.raises(WidthError):
            Ext(Const(0, 8), 4, signed=False)

    def test_reduction_width_is_one(self):
        assert UnOp(UnOpKind.REDOR, Const(0, 9)).width == 1


class TestSemantics:
    def test_add_wraps(self):
        assert both(BinOp(BinOpKind.ADD, Const(15, 4), Const(2, 4))) == 1

    def test_sub_wraps(self):
        assert both(BinOp(BinOpKind.SUB, Const(0, 4), Const(1, 4))) == 15

    def test_unsigned_vs_signed_product_differ(self):
        # (-1) * 1 over 2-bit operands: signed -1 -> 0b1111, unsigned 3 -> 0b0011
        a, b = Const(0b11, 2), Const(0b01, 2)
        assert both(BinOp(BinOpKind.MUL, a, b)) == 3
        assert both(BinOp(BinOpKind.MULS, a, b)) == 0b1111

    def test_signed_compare(self):
        assert both(BinOp(BinOpKind.SLT, Const(0b1000, 4), Const(0, 4))) == 1
        assert both(BinOp(BinOpKind.ULT, Const(0b1000, 4), Const(0, 4))) == 0

    def test_shl_overflow_drops_bits(self):
        assert both(BinOp(BinOpKind.SHL, Const(0b1001, 4), Const(1, 3))) == 0b0010

    def test_shift_by_width_or_more_is_zero(self):
        assert both(BinOp(BinOpKind.SHL, Const(1, 4), Const(4, 4))) == 0
        assert both(BinOp(BinOpKind.LSHR, Const(8, 4), Const(9, 4))) == 0

    def test_ashr_saturates_shift_amount(self):
        assert both(BinOp(BinOpKind.ASHR, Const(0b1000, 4), Const(100, 8))) == 0b1111

    def test_ashr_positive(self):
        assert both(BinOp(BinOpKind.ASHR, Const(0b0100, 4), Const(2, 3))) == 0b0001

    def test_not_and_neg(self):
        assert both(UnOp(UnOpKind.NOT, Const(0b1010, 4))) == 0b0101
        assert both(UnOp(UnOpKind.NEG, Const(1, 4))) == 15

    def test_reductions(self):
        assert both(UnOp(UnOpKind.REDOR, Const(0, 5))) == 0
        assert both(UnOp(UnOpKind.REDOR, Const(2, 5))) == 1
        assert both(UnOp(UnOpKind.REDAND, Const(0b11111, 5))) == 1
        assert both(UnOp(UnOpKind.REDAND, Const(0b11011, 5))) == 0
        assert both(UnOp(UnOpKind.REDXOR, Const(0b1011, 4))) == 1

    def test_mux_selects(self):
        expr = Mux(Const(1, 1), Const(3, 4), Const(9, 4))
        assert both(expr) == 3
        expr = Mux(Const(0, 1), Const(3, 4), Const(9, 4))
        assert both(expr) == 9

    def test_cat_is_msb_first(self):
        assert both(Cat((Const(0b10, 2), Const(0b01, 2)))) == 0b1001

    def test_slice(self):
        assert both(Slice(Const(0b110101, 6), 4, 1)) == 0b1010

    def test_sext_zext(self):
        assert both(Ext(Const(0b1000, 4), 8, signed=True)) == 0xF8
        assert both(Ext(Const(0b1000, 4), 8, signed=False)) == 0x08

    def test_signal_reference(self):
        sig = Signal("x", 8)
        assert both(Ref(sig), {"x": 42}) == 42


_EDGE_WIDTHS = [1, 2, 8, 63, 64, 65, 97, 128]
_SIGNED_KINDS = [BinOpKind.MULS, BinOpKind.SLT, BinOpKind.SLE, BinOpKind.SGT,
                 BinOpKind.SGE]


def _edge_values(width):
    """0, 1, S - 1, S, S + 1 and all-ones for ``S = 2**(width - 1)``."""
    sign, ones = 1 << (width - 1), (1 << width) - 1
    return sorted({v & ones for v in (0, 1, sign - 1, sign, sign + 1, ones)})


def _operands(sig, value):
    """The same value as a signal read (``env``) and as a constant."""
    return [(Ref(sig), {sig.name: value}), (Const(value, sig.width), {})]


class TestInlineSignedOps:
    """The emitted code sign-extends inline, with no helper, and folds constants.

    Every signed operation is checked at the widths around Python's
    small-int and machine-word edges, with the values around the sign bit,
    on signal operands and on constant ones (which fold at emit time).
    """

    @pytest.mark.parametrize("width", _EDGE_WIDTHS)
    def test_signed_ext_matches_interpreter(self, width):
        for value in _edge_values(width):
            for operand, env in _operands(Signal("a", width), value):
                for out in (width, width + 1, 2 * width + 3):
                    expected = to_signed(value, width) & ((1 << out) - 1)
                    assert both(Ext(operand, out, signed=True), env) == expected

    @pytest.mark.parametrize("width", _EDGE_WIDTHS)
    def test_signed_binops_match_interpreter(self, width):
        a_sig, b_sig = Signal("a", width), Signal("b", width)
        values = _edge_values(width)
        for va in values:
            for vb in values:
                for a, env_a in _operands(a_sig, va):
                    for b, env_b in _operands(b_sig, vb):
                        for kind in _SIGNED_KINDS:
                            both(BinOp(kind, a, b), {**env_a, **env_b})

    @pytest.mark.parametrize("width", _EDGE_WIDTHS)
    def test_ashr_matches_interpreter(self, width):
        amount_sig = Signal("n", 8)
        amounts = sorted({0, 1, width - 1, width, width + 1, 255} & set(range(256)))
        for value in _edge_values(width):
            for a, env in _operands(Signal("a", width), value):
                for n in amounts:
                    for amount, env_n in _operands(amount_sig, n):
                        expr = BinOp(BinOpKind.ASHR, a, amount)
                        expected = (to_signed(value, width) >> min(n, width - 1)
                                    ) & ((1 << width) - 1)
                        assert both(expr, {**env, **env_n}) == expected

    @pytest.mark.parametrize("width", _EDGE_WIDTHS)
    def test_nested_ext_chains_match_interpreter(self, width):
        sig = Signal("a", width)
        chains = [
            lambda a: Ext(Ext(a, width + 5, signed=True), width + 9, signed=True),
            lambda a: Ext(Ext(a, width, signed=False), width + 4, signed=True),
            lambda a: Ext(Ext(Ext(a, width, signed=False), width + 1, signed=True),
                          width + 1, signed=True),
            lambda a: Ext(Ext(a, width + 2, signed=False), width + 3, signed=True),
            lambda a: Ext(Ext(a, width + 2, signed=True), width + 3, signed=False),
        ]
        for value in _edge_values(width):
            for operand, env in _operands(sig, value):
                for chain in chains:
                    both(chain(operand), env)

    def test_an_ext_chain_is_emitted_as_one_extension(self):
        x = Ref(Signal("x", 23))
        chain = Ext(Ext(Ext(x, 23, signed=False), 24, signed=True), 32, signed=True)
        code = emit_py(chain, lambda sig: sig.name)
        assert code.count("^") == 1
        assert f"^ {1 << 22})" in code

    def test_constants_fold_at_emit_time(self):
        x = Ref(Signal("x", 12))
        ref_of = lambda sig: sig.name
        # A signed Ext of a constant is a literal.
        assert emit_py(Ext(Const(0x800, 12), 16, signed=True), ref_of) == repr(0xF800)
        # A constant operand of a signed op is its signed literal.
        code = emit_py(BinOp(BinOpKind.SLT, x, Const(-3, 12)), ref_of)
        assert "< -3 " in code and str(0xFFD) not in code
        # A constant shift amount needs no range check.
        for kind in _SHIFTS:
            assert " if " not in emit_py(BinOp(kind, x, Const(5, 4)), ref_of)
        assert emit_py(BinOp(BinOpKind.SHL, x, Const(12, 4)), ref_of) == "0"
        assert emit_py(BinOp(BinOpKind.LSHR, x, Const(15, 4)), ref_of) == "0"

    def test_a_compiled_signed_design_runs_without_helpers(self):
        from repro.api import Session
        from repro.rtl import elaborate
        from repro.sim.compile import ScalarLowering, compile_netlist

        netlist = elaborate(Session().build("xls-s8").top)
        compiled = compile_netlist(netlist)
        assert "_sx(" not in compiled.source
        assert f"^ {1 << 11}) - {1 << 11})" in compiled.source  # 12-bit inputs
        assert ScalarLowering(netlist).namespace() == {}
        assert set(compiled.settle.__globals__) == {"__builtins__", "settle", "tick"}


class TestStructuralQueries:
    def test_expr_signals_collects_transitively(self):
        a, b = Signal("a", 4), Signal("b", 4)
        expr = ops.mux(ops.eq(a, b), ops.add(a, b), ops.bnot(a))
        assert expr_signals(expr) == {a, b}

    def test_expr_size_counts_nodes(self):
        assert expr_size(Const(0, 1)) == 1
        expr = BinOp(BinOpKind.ADD, Const(0, 4), Const(0, 4))
        assert expr_size(expr) == 3


# ----------------------------------------------------------------------
# path explosion: structural passes must be linear in distinct nodes
# ----------------------------------------------------------------------

DIAMOND_DEPTH = 48  # 2**48 root-to-leaf paths, 3 * 48 + 4 distinct nodes


def _diamond(a, addr, mem, depth, share=True):
    """``x ^= x >> 1``, ``depth`` times, over ``mem[addr] ^ a``.

    With ``share`` every level reads the previous node object twice (a
    chained diamond); without it each use gets a fresh copy (a tree).
    """
    def base():
        return BinOp(BinOpKind.XOR, MemRead(mem, Ref(addr)), Ref(a))

    def level(n):
        if n == 0:
            return base()
        if share:
            x = level(n - 1)
            return BinOp(BinOpKind.XOR, x, BinOp(BinOpKind.LSHR, x, Const(1, 2)))
        return BinOp(BinOpKind.XOR, level(n - 1),
                     BinOp(BinOpKind.LSHR, level(n - 1), Const(1, 2)))

    return level(depth)


def _diamond_module(depth=DIAMOND_DEPTH):
    from repro.rtl import Module

    m = Module("diamond")
    a = m.input("a", 16)
    addr = m.input("addr", 4)
    y = m.output("y", 16)
    mem = m.memory("rom", 16, 16, init=[(i * 0x2F1B) & 0xFFFF for i in range(16)])
    m.assign(y, _diamond(a, addr, mem, depth))
    return m


def _reference(a, word, depth=DIAMOND_DEPTH):
    x = word ^ a
    for _ in range(depth):
        x ^= x >> 1
    return x


class TestPathExplosion:
    """A chained diamond has 2**depth paths but few distinct nodes."""

    BUDGET_S = 1.0

    def timed(self, fn, *args, **kwargs):
        import time

        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        assert elapsed < self.BUDGET_S, f"{fn.__name__} took {elapsed:.2f} s"
        return result

    def test_walks_visit_each_node_once(self):
        from repro.rtl.ir import expr_mem_reads

        from repro.rtl import Memory

        a, addr = Signal("a", 16), Signal("addr", 4)
        mem = Memory("rom", 16, 16)
        dag = _diamond(a, addr, mem, DIAMOND_DEPTH)
        tree = _diamond(a, addr, mem, 3, share=False)

        assert self.timed(expr_signals, dag) == expr_signals(tree) == {a, addr}
        n_nodes = len(self.timed(graph, [dag]).nodes)
        assert n_nodes == 3 * DIAMOND_DEPTH + 4
        dag_reads = self.timed(expr_mem_reads, dag)
        tree_reads = expr_mem_reads(tree)
        assert len(dag_reads) == 1  # the one MemRead node, listed once
        assert len(tree_reads) == 8  # eight distinct copies in the tree
        assert {r.memory for r in dag_reads} == {r.memory for r in tree_reads} == {mem}

    def test_walk_keeps_first_visit_order(self):
        a, b, c = Signal("a", 4), Signal("b", 4), Signal("c", 4)
        shared = BinOp(BinOpKind.ADD, Ref(b), Ref(a))
        expr = Cat((shared, Ref(c), shared))
        assert list(expr_signals(expr)) == list({b, a, c})

    def test_netlist_passes_are_linear(self):
        from repro.rtl import elaborate
        from repro.sim import Simulator
        from repro.sim.compile import compile_netlist
        from repro.synth import synthesize

        netlist = self.timed(elaborate, _diamond_module())
        self.timed(netlist.validate)
        order = self.timed(netlist.comb_order)
        assert [sig.name for sig, _expr in order] == ["y"]
        self.timed(compile_netlist, netlist)
        report = self.timed(synthesize, netlist)
        assert report.n_lut > 0

        sim = Simulator(netlist)
        mem = netlist.memories[0]
        for a, addr in ((0, 0), (0x1234, 5), (0xFFFF, 15)):
            sim.poke("a", a)
            sim.poke("addr", addr)
            assert sim.peek_int("y") == _reference(a, mem.init[addr])


class TestOpsHelpers:
    def test_balance_promotes_int_to_signal_width(self):
        a = Signal("a", 8)
        expr = ops.add(a, 3)
        assert expr.width == 8

    def test_two_ints_rejected(self):
        with pytest.raises(TypeError):
            ops.add(1, 2)

    def test_add_grow_adds_carry_bit(self):
        a, b = Signal("a", 8), Signal("b", 8)
        assert ops.add(a, b, grow=True).width == 9

    def test_mixed_width_signed_balance(self):
        a, b = Signal("a", 4), Signal("b", 8)
        expr = ops.add(a, b)
        assert expr.width == 8
        assert both(expr, {"a": 0b1111, "b": 1}) == 0  # -1 + 1

    def test_mixed_width_unsigned_balance(self):
        a, b = Signal("a", 4), Signal("b", 8)
        expr = ops.add(a, b, signed=False)
        assert both(expr, {"a": 0b1111, "b": 1}) == 16

    def test_resize_narrows_and_widens(self):
        a = Signal("a", 8)
        assert ops.resize(a, 4).width == 4
        assert ops.resize(a, 16).width == 16
        assert ops.resize(a, 8) is not None

    def test_mul_int_operand_uses_min_width(self):
        a = Signal("a", 8)
        assert ops.mul(a, 181).width == 8 + 9  # 181 needs 9 signed bits
        assert ops.mul(a, 181, signed=False).width == 8 + 8

    def test_mux_balances_arms(self):
        a = Signal("a", 4)
        expr = ops.mux(ops.eq(a, 0), a, 255)
        # 255 as an int takes the other arm's width after balancing: the
        # wider literal arm wins, both become 4 bits wide here since the
        # integer adopts the signal arm's width.
        assert expr.width == 4

    def test_shift_helpers(self):
        a = Signal("a", 8)
        assert both(ops.shl(a, 2), {"a": 1}) == 4
        assert both(ops.lshr(a, 2), {"a": 0x80}) == 0x20
        assert both(ops.ashr(a, 2), {"a": 0x80}) == 0xE0

    def test_bit_and_bits(self):
        a = Signal("a", 8)
        assert both(ops.bit(a, 7), {"a": 0x80}) == 1
        assert both(ops.bits(a, 7, 4), {"a": 0xA5}) == 0xA

    def test_as_expr_rejects_bad_type(self):
        with pytest.raises(TypeError):
            ops.as_expr("nope")  # type: ignore[arg-type]

    def test_as_expr_int_needs_width(self):
        with pytest.raises(TypeError):
            ops.as_expr(5)


# ----------------------------------------------------------------------
# property tests: every engine and both compiler lowerings agree with the
# interpreter on random trees over every node kind
# ----------------------------------------------------------------------

_SAME_WIDTH = [BinOpKind.ADD, BinOpKind.SUB, BinOpKind.AND, BinOpKind.OR,
               BinOpKind.XOR]
_SHIFTS = [BinOpKind.SHL, BinOpKind.LSHR, BinOpKind.ASHR]
_COMPARES = [BinOpKind.EQ, BinOpKind.NE, BinOpKind.ULT, BinOpKind.ULE,
             BinOpKind.UGT, BinOpKind.UGE, BinOpKind.SLT, BinOpKind.SLE,
             BinOpKind.SGT, BinOpKind.SGE]
_REDUCTIONS = [UnOpKind.REDOR, UnOpKind.REDAND, UnOpKind.REDXOR]
LANES = 5


def test_generator_covers_every_operator_kind():
    assert set(_SAME_WIDTH + _SHIFTS + _COMPARES
               + [BinOpKind.MUL, BinOpKind.MULS]) == set(BinOpKind)
    assert set(_REDUCTIONS + [UnOpKind.NOT, UnOpKind.NEG]) == set(UnOpKind)


class _TreeBuilder:
    """Draws expression DAGs whose leaves are constants or module inputs.

    One input per width (``i<width>``) is created on first use, and a
    node already built may be drawn again, so trees share subexpressions
    and the compiler's hoisting is exercised too.
    """

    def __init__(self, draw, module):
        self.draw = draw
        self.module = module
        self.inputs = {}
        self.made = {}

    def leaf(self, width):
        if self.draw(st.booleans()):
            sig = self.inputs.get(width)
            if sig is None:
                sig = self.inputs[width] = self.module.input(f"i{width}", width)
            return Ref(sig)
        return Const(self.draw(st.integers(0, 2**width - 1)), width)

    def expr(self, width, depth):
        if depth == 0:
            return self.leaf(width)
        shared = self.made.get(width)
        if shared and self.draw(st.integers(0, 4)) == 0:
            return self.draw(st.sampled_from(shared))
        node = self.node(width, depth - 1)
        self.made.setdefault(width, []).append(node)
        return node

    def node(self, width, depth):
        draw, expr = self.draw, self.expr
        if width == 1 and draw(st.integers(0, 2)):
            operand_width = draw(st.integers(1, 8))
            if draw(st.integers(0, 2)) == 0:
                return UnOp(draw(st.sampled_from(_REDUCTIONS)),
                            expr(operand_width, depth))
            a = expr(operand_width, depth)
            # Comparing a node with itself pins the equal-operands case.
            b = a if draw(st.integers(0, 3)) == 0 else expr(operand_width, depth)
            return BinOp(draw(st.sampled_from(_COMPARES)), a, b)
        choice = draw(st.integers(0, 8))
        if choice in (1, 6):
            kind = draw(st.sampled_from(_SAME_WIDTH))
            return BinOp(kind, expr(width, depth), expr(width, depth))
        if choice == 2:
            return Mux(expr(1, depth), expr(width, depth), expr(width, depth))
        if choice == 3:
            kind = draw(st.sampled_from([UnOpKind.NOT, UnOpKind.NEG]))
            return UnOp(kind, expr(width, depth))
        if choice == 4:  # shift by a constant or by a variable amount
            kind = draw(st.sampled_from(_SHIFTS))
            amount_width = draw(st.integers(1, 5))
            if draw(st.booleans()):
                amount = Const(draw(st.integers(0, 2**amount_width - 1)),
                               amount_width)
            else:
                amount = expr(amount_width, depth)
            return BinOp(kind, expr(width, depth), amount)
        if choice == 5 and width >= 2:
            kind = draw(st.sampled_from([BinOpKind.MUL, BinOpKind.MULS]))
            wa = draw(st.integers(1, width - 1))
            return BinOp(kind, expr(wa, depth), expr(width - wa, depth))
        if choice == 7 and width >= 2:
            cut = draw(st.integers(1, width - 1))
            return Cat((expr(cut, depth), expr(width - cut, depth)))
        if choice == 8:
            lo = draw(st.integers(0, 3))
            return Slice(expr(width + lo + draw(st.integers(0, 2)), depth),
                         lo + width - 1, lo)
        if choice == 0 and width >= 2:
            inner = expr(draw(st.integers(1, width)), depth)
            return Ext(inner, width, signed=draw(st.booleans()))
        return self.leaf(width)


@st.composite
def random_tree(draw, depth=3):
    """``(module, expr, inputs)``: ``module`` drives output ``y`` with ``expr``."""
    from repro.rtl import Module

    module = Module("tree")
    builder = _TreeBuilder(draw, module)
    expr = builder.expr(draw(st.integers(1, 16)), depth)
    module.assign(module.output("y", expr.width), expr)
    return module, expr, list(builder.inputs.values())


def _draw_env(data, inputs):
    return {sig.name: data.draw(st.integers(0, 2**sig.width - 1))
            for sig in inputs}


@given(random_tree(), st.data())
def test_compiled_matches_interpreter_on_random_trees(tree, data):
    _module, expr, inputs = tree
    env = _draw_env(data, inputs)
    assert evaluate(expr, env) == evaluate_compiled(expr, env)


@given(random_tree(), st.data())
def test_eval_result_fits_width(tree, data):
    _module, expr, inputs = tree
    value = evaluate(expr, _draw_env(data, inputs))
    assert 0 <= value < 2**expr.width


@given(random_tree(), st.data())
def test_graph_lists_each_node_once_operands_first(tree, data):
    """``graph`` over several roots that share nodes with each other."""
    _module, expr, _inputs = tree
    under = graph([expr]).nodes
    picks = data.draw(st.lists(st.integers(0, len(under) - 1), max_size=4))
    roots = [under[i] for i in picks] + [expr]
    g = graph(roots)

    assert len({id(node) for node in g.nodes}) == len(g.nodes)
    for i, node in enumerate(g.nodes):
        operands = [g.nodes[j] for j in g.kids[i]]
        assert all(j < i for j in g.kids[i])
        assert len(operands) == len(expr_children(node))
        assert all(a is b for a, b in zip(operands, expr_children(node)))
    assert len(g.at) == len(g.ends) == len(roots)
    assert g.ends == sorted(g.ends) and g.ends[-1] == len(g.nodes)
    for k, root in enumerate(roots):
        assert g.nodes[g.at[k]] is root and g.at[k] < g.ends[k]
        # The prefix is exactly what roots 0..k reach, in the same order.
        prefix = graph(roots[:k + 1]).nodes
        assert len(prefix) == g.ends[k]
        assert all(a is b for a, b in zip(prefix, g.nodes))
        reached = {id(node) for node in graph([root]).nodes}
        assert reached <= {id(node) for node in g.nodes[:g.ends[k]]}


@settings(max_examples=300, deadline=None)
@given(random_tree(), st.data())
def test_every_engine_and_lowering_agree_on_random_trees(tree, data):
    from repro.rtl import elaborate
    from repro.sim import Simulator

    module, expr, inputs = tree
    netlist = elaborate(module)
    envs = [_draw_env(data, inputs) for _ in range(LANES)]
    packed = Simulator(netlist, engine="batch", lanes=LANES)
    for sig in inputs:
        packed.poke_lanes(sig.name, [env[sig.name] for env in envs])
    sims = [Simulator(netlist, engine=engine)
            for engine in ("interp", "compiled", "batch")]
    for lane, env in enumerate(envs):
        got = {f"batch@{LANES}": packed.peek_lane("y", lane)}
        for sim in sims:
            for name, value in env.items():
                sim.poke(name, value)
            got[sim.engine] = sim.peek_int("y")
        expected = evaluate(expr, env)
        assert got == dict.fromkeys(got, expected), (lane, env)


@settings(max_examples=200, deadline=None)
@given(random_tree(), st.data())
def test_every_engine_agrees_when_a_wide_bus_carries_the_tree(tree, data):
    """The same agreement with the tree routed through a wide bus.

    The assign ``wide`` and the register ``bus`` are more than three times
    wider than every port and node, so the packed lowering splits both
    into lane fields.  The tree sits at a drawn offset, so the slices
    that read it back straddle fields, and ``bus`` loads it only in the
    lanes where ``go`` is 1 (through a mux or a register enable).
    """
    from repro.rtl import elaborate
    from repro.sim import Simulator

    module, expr, inputs = tree
    top = max(node.width for node in graph([expr]).nodes)
    w = expr.width
    lo = data.draw(st.integers(0, top))
    hi = 3 * top + 1 - w + data.draw(st.integers(0, top))
    pad_hi, pad_lo = data.draw(st.integers(0, 2**hi - 1)), data.draw(
        st.integers(0, 2**lo - 1))
    wide = module.connect("wide", hi + w + lo, Cat(
        (Const(pad_hi, hi), expr) + ((Const(pad_lo, lo),) if lo else ())))
    go = module.input("go", 1)
    init = data.draw(st.integers(0, 2**wide.width - 1))
    bus = module.reg("bus", wide.width, init=init)
    if data.draw(st.booleans()):
        module.set_next(bus, Mux(Ref(go), Ref(wide), Ref(bus)))
    else:
        module.set_next(bus, Ref(wide), en=Ref(go))
    module.assign(module.output("yw", w), Slice(Ref(wide), lo + w - 1, lo))
    module.assign(module.output("yr", w), Slice(Ref(bus), lo + w - 1, lo))
    netlist = elaborate(module)

    envs = [_draw_env(data, inputs + [go]) for _ in range(LANES)]
    packed = Simulator(netlist, engine="batch", lanes=LANES)
    for sig in inputs + [go]:
        packed.poke_lanes(sig.name, [env[sig.name] for env in envs])
    # One scalar simulator per engine and lane, so each steps one stimulus.
    lane_sims = [[Simulator(netlist, engine=engine)
                  for engine in ("interp", "compiled", "batch")]
                 for _ in envs]
    for sims, env in zip(lane_sims, envs):
        for sim in sims:
            for name, value in env.items():
                sim.poke(name, value)

    def check(expected_of_lane):
        for lane, env in enumerate(envs):
            expected = expected_of_lane(env)
            for name, want in expected.items():
                got = {f"batch@{LANES}": packed.peek_lane(name, lane)}
                for sim in lane_sims[lane]:
                    got[sim.engine] = sim.peek_int(name)
                assert got == dict.fromkeys(got, want), (name, lane, env)

    def loaded(env):
        return (pad_hi << (w + lo)) | (evaluate(expr, env) << lo) | pad_lo

    check(lambda env: {"y": evaluate(expr, env), "yw": evaluate(expr, env),
                       "wide": loaded(env), "bus": init})
    for sim in [packed] + [sim for sims in lane_sims for sim in sims]:
        sim.step()
    after = lambda env: loaded(env) if env["go"] else init
    check(lambda env: {"bus": after(env),
                       "yr": (after(env) >> lo) & ((1 << w) - 1)})


@given(st.integers(-(2**15), 2**15 - 1), st.integers(-(2**15), 2**15 - 1))
def test_muls_matches_python_signed_product(a, b):
    expr = BinOp(BinOpKind.MULS, Const(a, 16), Const(b, 16))
    assert both(expr) == (a * b) % 2**32
