"""Tests for module construction and hierarchy elaboration."""

import pytest

from repro.core.errors import (
    CombinationalLoopError,
    DriverError,
    ElaborationError,
    WidthError,
)
from repro.rtl import Module, Netlist, elaborate, ops
from repro.rtl.ir import Ref, Signal, eval_expr


def make_adder(name="adder", width=8):
    m = Module(name)
    a = m.input("a", width)
    b = m.input("b", width)
    y = m.output("y", width)
    m.assign(y, ops.add(a, b))
    return m


class TestModuleConstruction:
    def test_ports_and_wires_get_unique_names(self):
        m = Module("m")
        first = m.wire("t", 4)
        second = m.wire("t", 4)
        assert first.name != second.name

    def test_double_assign_rejected(self):
        m = Module("m")
        w = m.wire("w", 4)
        m.assign(w, ops.const(1, 4))
        with pytest.raises(DriverError):
            m.assign(w, ops.const(2, 4))

    def test_assign_width_mismatch_rejected(self):
        m = Module("m")
        w = m.wire("w", 4)
        with pytest.raises(WidthError):
            m.assign(w, ops.const(0, 5))

    def test_assign_to_register_output_rejected(self):
        m = Module("m")
        r = m.reg("r", 4, next=ops.const(0, 4))
        with pytest.raises(DriverError):
            m.assign(r, ops.const(1, 4))

    def test_reg_feedback_via_set_next(self):
        m = Module("m")
        count = m.reg("count", 8)
        m.set_next(count, ops.add(count, 1))
        assert m.registers[0].next is not None

    def test_set_next_twice_rejected(self):
        m = Module("m")
        r = m.reg("r", 4, next=ops.const(0, 4))
        with pytest.raises(DriverError):
            m.set_next(r, ops.const(1, 4))

    def test_set_next_on_non_register_rejected(self):
        m = Module("m")
        w = m.wire("w", 4)
        with pytest.raises(ElaborationError):
            m.set_next(w, ops.const(0, 4))

    def test_reg_enable_must_be_one_bit(self):
        m = Module("m")
        wide = m.input("wide", 2)
        with pytest.raises(WidthError):
            m.reg("r", 4, next=ops.const(0, 4), en=Ref(wide))

    def test_connect_declares_and_drives(self):
        m = Module("m")
        a = m.input("a", 4)
        w = m.connect("w", 4, ops.add(a, 1))
        assert w in m.assigns

    def test_port_bits(self):
        m = make_adder(width=8)
        assert m.port_bits() == 24

    def test_memory_write_port_limit(self):
        m = Module("m")
        mem = m.memory("buf", 8, 16, max_write_ports=1)
        en = m.input("en", 1)
        m.mem_write(mem, en, ops.const(0, 32), ops.const(0, 16))
        with pytest.raises(ElaborationError):
            m.mem_write(mem, en, ops.const(1, 32), ops.const(0, 16))

    def test_mem_write_foreign_memory_rejected(self):
        m1, m2 = Module("m1"), Module("m2")
        mem = m1.memory("buf", 8, 16)
        with pytest.raises(ElaborationError):
            m2.mem_write(mem, ops.const(1, 1), ops.const(0, 32), ops.const(0, 16))


class TestInstanceConnections:
    def test_unknown_port_rejected(self):
        top = Module("top")
        child = make_adder()
        with pytest.raises(ElaborationError):
            top.instance(child, "u0", nope=ops.const(0, 8))

    def test_unconnected_port_rejected(self):
        top = Module("top")
        child = make_adder()
        a = top.input("a", 8)
        with pytest.raises(ElaborationError):
            top.instance(child, "u0", a=a)

    def test_output_must_be_signal(self):
        top = Module("top")
        child = make_adder()
        a = top.input("a", 8)
        with pytest.raises(ElaborationError):
            top.instance(child, "u0", a=a, b=a, y=ops.const(0, 8))

    def test_input_width_mismatch_rejected(self):
        top = Module("top")
        child = make_adder()
        a = top.input("a", 9)
        y = top.wire("y", 8)
        with pytest.raises(WidthError):
            top.instance(child, "u0", a=Ref(a), b=ops.const(0, 8), y=y)


def run_comb(netlist: Netlist, inputs: dict[str, int]) -> dict[str, int]:
    """Tiny helper: evaluate the combinational netlist once."""
    values = dict(inputs)

    def read(sig: Signal) -> int:
        return values[sig.name]

    for sig, expr in netlist.comb_order():
        values[sig.name] = eval_expr(expr, read)
    return values


class TestElaboration:
    def test_flat_adder(self):
        netlist = elaborate(make_adder())
        values = run_comb(netlist, {"a": 3, "b": 4})
        assert values["y"] == 7

    def test_hierarchy_two_instances(self):
        top = Module("top")
        a = top.input("a", 8)
        b = top.input("b", 8)
        c = top.input("c", 8)
        y = top.output("y", 8)
        partial = top.wire("partial", 8)
        child = make_adder()
        top.instance(child, "u0", a=Ref(a), b=Ref(b), y=partial)
        top.instance(child, "u1", a=Ref(partial), b=Ref(c), y=y)
        netlist = elaborate(top)
        values = run_comb(netlist, {"a": 1, "b": 2, "c": 3})
        assert values["y"] == 6

    def test_same_child_instantiated_twice_gets_fresh_signals(self):
        top = Module("top")
        a = top.input("a", 8)
        y0 = top.output("y0", 8)
        y1 = top.output("y1", 8)
        child = make_adder()
        top.instance(child, "u0", a=Ref(a), b=ops.const(1, 8), y=y0)
        top.instance(child, "u1", a=Ref(a), b=ops.const(2, 8), y=y1)
        netlist = elaborate(top)
        values = run_comb(netlist, {"a": 10})
        assert values["y0"] == 11
        assert values["y1"] == 12

    def test_nested_hierarchy_names_are_dotted(self):
        inner = make_adder("inner")
        middle = Module("middle")
        a = middle.input("a", 8)
        y = middle.output("y", 8)
        t = middle.wire("t", 8)
        middle.instance(inner, "i0", a=Ref(a), b=ops.const(5, 8), y=t)
        middle.assign(y, ops.add(t, 0))
        top = Module("top")
        ta = top.input("a", 8)
        ty = top.output("y", 8)
        top.instance(middle, "m0", a=Ref(ta), y=ty)
        netlist = elaborate(top)
        names = [sig.name for sig, _ in netlist.assigns]
        assert any(name.startswith("m0.") for name in names)
        values = run_comb(netlist, {"a": 7})
        assert values["y"] == 12

    def test_undriven_output_rejected(self):
        m = Module("m")
        m.input("a", 4)
        m.output("y", 4)
        with pytest.raises(DriverError):
            elaborate(m)

    def test_read_of_undriven_wire_rejected(self):
        m = Module("m")
        y = m.output("y", 4)
        ghost = m.wire("ghost", 4)
        m.assign(y, ops.add(ghost, 1))
        with pytest.raises(DriverError):
            elaborate(m)

    def test_undriven_read_is_reported_under_the_first_root(self):
        # Assigns come before registers in ``Netlist.roots()``.
        m = Module("m")
        y = m.output("y", 4)
        ghost = m.wire("ghost", 4)
        m.reg("r", 4, next=ops.add(ghost, 2))
        m.assign(y, ops.add(ghost, 1))
        with pytest.raises(DriverError, match="ghost read by assign y but never driven"):
            elaborate(m)

    def test_write_port_reads_count_against_read_ports(self):
        # A read-modify-write port: its data reads the memory at
        # 8 * ports + 1 distinct addresses, one more than the limit.
        from repro.rtl.ir import BinOp, BinOpKind, Const, MemRead

        m = Module("m")
        a = m.input("a", 4)
        y = m.output("y", 4)
        m.assign(y, Ref(a))
        mem = m.memory("buf", 16, 8, max_read_ports=1)
        data = MemRead(mem, Const(0, 4))
        for addr in range(1, 9):
            data = BinOp(BinOpKind.XOR, data, MemRead(mem, Const(addr, 4)))
        m.mem_write(mem, 1, Ref(a), data)
        with pytest.raises(ElaborationError, match="9 concurrent reads for 1 ports"):
            elaborate(m)

    def test_register_without_next_rejected(self):
        m = Module("m")
        y = m.output("y", 4)
        r = m.reg("r", 4)
        m.assign(y, ops.add(r, 0))
        with pytest.raises(ElaborationError):
            elaborate(m)

    def test_combinational_loop_detected(self):
        m = Module("m")
        y = m.output("y", 4)
        a = m.wire("a", 4)
        b = m.wire("b", 4)
        m.assign(a, ops.add(b, 1))
        m.assign(b, ops.add(a, 1))
        m.assign(y, Ref(a))
        netlist = elaborate(m)
        with pytest.raises(CombinationalLoopError):
            netlist.comb_order()

    def test_register_breaks_loop(self):
        m = Module("m")
        y = m.output("y", 4)
        r = m.reg("r", 4)
        m.set_next(r, ops.add(r, 1))
        m.assign(y, Ref(r))
        netlist = elaborate(m)
        netlist.comb_order()  # must not raise

    def test_n_io_counts_ports_plus_clock_reset(self):
        netlist = elaborate(make_adder(width=8))
        assert netlist.n_io == 24 + 2

    def test_stats(self):
        m = Module("m")
        a = m.input("a", 4)
        y = m.output("y", 4)
        r = m.reg("r", 4, next=Ref(a))
        m.assign(y, Ref(r))
        stats = elaborate(m).stats()
        assert stats["registers"] == 1
        assert stats["reg_bits"] == 4
        assert stats["assigns"] == 1

    def test_memory_cloned_per_instance(self):
        child = Module("child")
        addr = child.input("addr", 3)
        data = child.output("data", 8)
        mem = child.memory("scratch", 8, 8, init=[i * 2 for i in range(8)])
        from repro.rtl.ir import MemRead

        child.assign(data, MemRead(mem, Ref(addr)))
        top = Module("top")
        a = top.input("addr", 3)
        d0 = top.output("d0", 8)
        d1 = top.output("d1", 8)
        top.instance(child, "u0", addr=Ref(a), data=d0)
        top.instance(child, "u1", addr=Ref(a), data=d1)
        netlist = elaborate(top)
        assert len(netlist.memories) == 2
        assert netlist.memories[0].name != netlist.memories[1].name

    def test_instance_output_drives_only_once(self):
        top = Module("top")
        a = top.input("a", 8)
        y = top.output("y", 8)
        child = make_adder()
        top.instance(child, "u0", a=Ref(a), b=ops.const(1, 8), y=y)
        top.instance(child, "u1", a=Ref(a), b=ops.const(2, 8), y=y)
        with pytest.raises(DriverError):
            elaborate(top)
