"""Tests for the synthesis cost model: area accounting and static timing."""

import pytest

from repro.core.errors import SynthesisError
from repro.rtl import Module, elaborate, ops
from repro.rtl.ir import MemRead, Ref, Signal
from repro.synth import ULTRASCALE_PLUS, XCVU9P, Device, normalized_area, synthesize
from repro.synth.cost import is_variable_mult, mult_dsp_count, node_cost


def synth(module, **kwargs):
    return synthesize(elaborate(module), **kwargs)


def make_mult(width=16, signed=True, const=None):
    m = Module("mult")
    a = m.input("a", width)
    if const is None:
        b = m.input("b", width)
        product = ops.mul(a, Ref(b), signed=signed)
    else:
        product = ops.mul(a, const, signed=signed)
    y = m.output("y", product.width)
    m.assign(y, product)
    return m


class TestNodeCost:
    def test_free_nodes(self):
        tech = ULTRASCALE_PLUS
        a = ops.const(5, 8)
        for node in (a, ops.bits(ops.const(0, 8), 3, 0), ops.cat(a, a)):
            cost = node_cost(node, tech)
            assert cost.luts == 0
            assert cost.delay == 0

    def test_adder_scales_with_width(self):
        tech = ULTRASCALE_PLUS
        m = Module("m")
        a8, b8 = m.input("a", 8), m.input("b", 8)
        a32, b32 = m.input("c", 32), m.input("d", 32)
        small = node_cost(ops.add(a8, b8), tech)
        large = node_cost(ops.add(a32, b32), tech)
        assert large.luts == 4 * small.luts
        assert large.delay > small.delay

    def test_constant_shift_is_free(self):
        tech = ULTRASCALE_PLUS
        m = Module("m")
        a = m.input("a", 16)
        cost = node_cost(ops.ashr(a, 3), tech)
        assert cost.luts == 0

    def test_variable_shift_costs_barrel(self):
        tech = ULTRASCALE_PLUS
        m = Module("m")
        a = m.input("a", 16)
        s = m.input("s", 4)
        cost = node_cost(ops.shl(a, Ref(s)), tech)
        assert cost.luts > 0

    def test_power_of_two_const_mult_is_free(self):
        tech = ULTRASCALE_PLUS
        m = Module("m")
        a = m.input("a", 12)
        cost = node_cost(ops.mul(a, 8), tech)
        assert cost.luts == 0
        assert cost.dsps == 0

    def test_dense_const_mult_costs_adders(self):
        tech = ULTRASCALE_PLUS
        m = Module("m")
        a = m.input("a", 12)
        # 2841 = 0b101100011001: the IDCT W1 coefficient.
        cost = node_cost(ops.mul(a, 2841), tech, allow_dsp=False)
        assert cost.luts > 0
        assert cost.dsps == 0
        assert cost.delay > 0

    def test_dense_const_mult_takes_dsp_when_allowed(self):
        # Vivado infers DSP48s for dense constant multipliers too.
        tech = ULTRASCALE_PLUS
        m = Module("m")
        a = m.input("a", 12)
        cost = node_cost(ops.mul(a, 2841), tech, allow_dsp=True)
        assert cost.dsps == 1
        assert cost.luts == 0

    def test_variable_mult_uses_dsp_when_allowed(self):
        tech = ULTRASCALE_PLUS
        m = Module("m")
        a, b = m.input("a", 16), m.input("b", 16)
        node = ops.mul(a, Ref(b))
        assert is_variable_mult(node)
        with_dsp = node_cost(node, tech, allow_dsp=True)
        without = node_cost(node, tech, allow_dsp=False)
        assert with_dsp.dsps >= 1
        assert with_dsp.luts == 0
        assert without.dsps == 0
        assert without.luts > 100

    def test_wide_mult_needs_multiple_dsps(self):
        tech = ULTRASCALE_PLUS
        m = Module("m")
        a, b = m.input("a", 32), m.input("b", 32)
        node = ops.mul(a, Ref(b))
        assert mult_dsp_count(node, tech) >= 4


class TestSynthReports:
    def test_adder_module(self):
        m = Module("adder")
        a, b = m.input("a", 16), m.input("b", 16)
        y = m.output("y", 16)
        m.assign(y, ops.add(a, b))
        report = synth(m)
        assert report.n_lut == round(16 * ULTRASCALE_PLUS.luts_per_add_bit)
        assert report.n_ff == 0
        assert report.fmax_mhz > 100

    def test_registers_count_as_ff(self):
        m = Module("regs")
        d = m.input("d", 32)
        q = m.output("q", 32)
        r = m.reg("r", 32, next=Ref(d))
        m.assign(q, Ref(r))
        report = synth(m)
        assert report.n_ff == 32

    def test_pipelining_reduces_tclk(self):
        def chain(n_stages):
            m = Module(f"chain{n_stages}")
            a = m.input("a", 16)
            y = m.output("y", 16)
            current = ops.as_expr(a)
            for i in range(8):
                current = ops.trunc(ops.mul(current, 2841), 16)
                if n_stages and (i + 1) % (8 // n_stages) == 0:
                    current = Ref(m.reg(f"p{i}", 16, next=current))
            m.assign(y, ops.trunc(current, 16))
            return synth(m)

        comb = chain(0)
        piped = chain(4)
        assert piped.t_clk_ns < comb.t_clk_ns
        assert piped.n_ff > comb.n_ff

    def test_maxdsp_zero_moves_mults_to_luts(self):
        m = make_mult()
        with_dsp = synth(m)
        without = synth(m, max_dsp=0)
        assert with_dsp.n_dsp >= 1
        assert without.n_dsp == 0
        assert without.n_lut > with_dsp.n_lut

    def test_dsp_budget_allocates_biggest_first(self):
        m = Module("mults")
        a, b = m.input("a", 24), m.input("b", 24)
        c, d = m.input("c", 8), m.input("d", 8)
        big = ops.mul(a, Ref(b))
        small = ops.mul(c, Ref(d))
        y1 = m.output("y1", big.width)
        y2 = m.output("y2", small.width)
        m.assign(y1, big)
        m.assign(y2, small)
        tech = ULTRASCALE_PLUS
        need_big = mult_dsp_count(big, tech)
        report = synth(m, max_dsp=need_big)
        # Budget covers only the big multiplier; the small one goes to LUTs.
        assert report.n_dsp == need_big
        assert report.n_lut > 0

    def test_dsp_ties_break_by_graph_order(self):
        # Three equal multipliers and DSPs for one: the first one the
        # graph reaches (the first register's) gets it, whatever the
        # nodes' addresses, so every fresh elaboration times the same.
        def build():
            m = Module("ties")
            a, b = m.input("a", 16), m.input("b", 16)
            y = m.output("y", 1)
            for i in range(3):
                m.reg(f"r{i}", 32, next=ops.mul(a, ops.add(b, i)))
            m.assign(y, ops.const(0, 1))
            return m

        one = mult_dsp_count(ops.mul(Ref(Signal("a", 16)), Ref(Signal("b", 16))),
                             ULTRASCALE_PLUS)
        reports = [synth(build(), max_dsp=one) for _ in range(5)]
        assert {r.n_dsp for r in reports} == {one}
        assert {(r.t_clk_ns, tuple(r.critical_path)) for r in reports} == {
            (reports[0].t_clk_ns, ("reg r1",))}

    def test_sta_follows_drivers_not_assign_order(self):
        # ``t`` is deep logic read by ``y``; listing y's assign before
        # t's must not time y's read of t before t has arrived.
        def build(reader_first):
            m = Module("order")
            a = m.input("a", 16)
            y = m.output("y", 16)
            t = m.wire("t", 16)
            deep = ops.as_expr(a)
            for _ in range(6):
                deep = ops.trunc(ops.mul(deep, 2841), 16)
            assigns = [(y, ops.add(t, 1)), (t, deep)]
            for target, expr in assigns if reader_first else assigns[::-1]:
                m.assign(target, expr)
            return m

        reader_first = elaborate(build(True))
        assert [sig.name for sig, _expr in reader_first.assigns] == ["y", "t"]
        report = synthesize(reader_first)
        expected = synthesize(elaborate(build(False)))
        assert report.t_clk_ns == expected.t_clk_ns
        assert report.critical_path == expected.critical_path == ["output y"]

    def test_normalized_area_is_dsp_free(self):
        m = make_mult()
        area = normalized_area(elaborate(m))
        report = synth(m, max_dsp=0)
        assert area == report.n_lut + report.n_ff

    def test_shared_node_counted_once(self):
        m1 = Module("shared")
        a = m1.input("a", 16)
        product = ops.mul(a, 2841)
        for i in range(4):
            y = m1.output(f"y{i}", product.width)
            m1.assign(y, product)
        m2 = Module("copied")
        a2 = m2.input("a", 16)
        for i in range(4):
            y = m2.output(f"y{i}", 16 + 13)
            m2.assign(y, ops.mul(a2, 2841))
        shared = synth(m1, max_dsp=0)
        copied = synth(m2, max_dsp=0)
        assert copied.n_lut > 2 * shared.n_lut

    def test_small_memory_maps_to_lutram(self):
        m = Module("mem")
        addr = m.input("addr", 3)
        data = m.output("data", 16)
        mem = m.memory("buf", 8, 16)
        m.mem_write(mem, ops.const(0, 1), ops.const(0, 32), ops.const(0, 16))
        m.assign(data, MemRead(mem, Ref(addr)))
        report = synth(m)
        assert report.n_bram == 0
        assert report.n_lut > 0

    def test_large_memory_maps_to_bram(self):
        m = Module("mem")
        addr = m.input("addr", 10)
        data = m.output("data", 32)
        mem = m.memory("buf", 1024, 32)
        m.assign(data, MemRead(mem, Ref(addr)))
        report = synth(m)
        assert report.n_bram >= 1

    def test_device_capacity_enforced(self):
        tiny = Device(name="tiny", n_lut=4, n_ff=4, n_dsp=0, n_io=100, n_bram=0)
        m = Module("big")
        a, b = m.input("a", 32), m.input("b", 32)
        y = m.output("y", 32)
        m.assign(y, ops.add(a, b))
        with pytest.raises(SynthesisError):
            synth(m, device=tiny)

    def test_report_properties(self):
        report = synth(make_mult())
        assert report.area == report.n_lut + report.n_ff
        assert 0 <= report.utilization()["lut"] < 1
        assert "fmax" in report.summary()
        assert report.n_io > 0

    def test_deeper_logic_is_slower(self):
        def depth(n):
            m = Module(f"depth{n}")
            a = m.input("a", 16)
            y = m.output("y", 16)
            expr = ops.as_expr(a)
            for _ in range(n):
                expr = ops.trunc(ops.add(expr, 1), 16)
            m.assign(y, expr)
            return synth(m).t_clk_ns

        assert depth(8) > depth(2) > depth(0)

    def test_xcvu9p_matches_paper_envelope(self):
        assert XCVU9P.n_lut == 1_182_240
        assert XCVU9P.n_ff == 2_364_480
        assert XCVU9P.n_dsp == 6_840
        assert XCVU9P.n_io == 702
