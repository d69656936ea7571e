"""Tests for the BSV-like rules engine and the rule-based IDCT systems."""

import pytest

from repro.core.errors import FrontendError
from repro.eval.experiments import fig1_design_lists
from repro.eval.verify import random_matrices, verify_design
from repro.frontends.hc.dsl import Sig, lit, mux
from repro.frontends.rules import (
    RulesModule,
    SchedulerOptions,
    bsv_initial,
    bsv_opt,
)
from repro.axis import StreamHarness, every
from repro.idct import chen_wang_idct
from repro.rtl import elaborate
from repro.sim import Simulator
from repro.synth import synthesize


def make_counter_rules():
    m = RulesModule("dut")
    go = m.input("go", 1)
    count = m.reg("count", 8, signed=False)
    step = m.rule("step", guard=go)
    step.write(count, Sig((count + 1).resize(8).expr, False))
    m.output("count", count)
    return m


class TestEngine:
    def test_single_rule_fires_when_ready(self):
        m = make_counter_rules()
        top, schedule = m.compile()
        sim = Simulator(top)
        sim.poke("go", 1)
        sim.step(4)
        assert sim.peek("count").uint == 4
        assert schedule.order == ["step"]

    def test_guard_false_blocks_rule(self):
        m = make_counter_rules()
        top, _ = m.compile()
        sim = Simulator(top)
        sim.poke("go", 0)
        sim.step(4)
        assert sim.peek("count").uint == 0

    def test_conflicting_rules_serialize_by_urgency(self):
        m = RulesModule("dut")
        shared = m.reg("shared", 8, signed=False)
        hi = m.rule("hi")
        hi.write(shared, 1)
        lo = m.rule("lo")
        lo.write(shared, 2)
        top, schedule = m.compile()
        assert not schedule.conflict_free("hi", "lo")
        sim = Simulator(top)
        sim.step()
        # Urgent rule wins every cycle.
        assert sim.peek("shared").uint == 1

    def test_non_conflicting_rules_fire_concurrently(self):
        m = RulesModule("dut")
        a = m.reg("a", 8, signed=False)
        b = m.reg("b", 8, signed=False)
        ra = m.rule("ra")
        ra.write(a, Sig((a + 1).resize(8).expr, False))
        rb = m.rule("rb")
        rb.write(b, Sig((b + 2).resize(8).expr, False))
        top, schedule = m.compile()
        assert schedule.conflict_free("ra", "rb")
        sim = Simulator(top)
        sim.step(3)
        assert sim.peek("a").uint == 3
        assert sim.peek("b").uint == 6

    def test_atomicity_reads_pre_cycle_state(self):
        # Two concurrent rules swap a and b: with atomic semantics both
        # read old values, so the swap is clean every cycle.
        m = RulesModule("dut")
        a = m.reg("a", 8, init=1, signed=False)
        b = m.reg("b", 8, init=2, signed=False)
        r1 = m.rule("put_a")
        r1.write(a, b)
        r2 = m.rule("put_b")
        r2.write(b, a)
        top, _ = m.compile()
        sim = Simulator(top)
        sim.step()
        assert (sim.peek("a").uint, sim.peek("b").uint) == (2, 1)
        sim.step()
        assert (sim.peek("a").uint, sim.peek("b").uint) == (1, 2)

    def test_pessimistic_mode_adds_guard_conflicts(self):
        def build(mode):
            m = RulesModule("dut")
            flag = m.reg("flag", 1, signed=False)
            other = m.reg("other", 8, signed=False)
            writer = m.rule("writer")
            writer.write(flag, ~flag)
            reader = m.rule("reader", guard=Sig(flag.expr, False))
            reader.write(other, 5)
            return m.compile(SchedulerOptions(conflict_mode=mode))[1]

        exact = build("exact")
        pessimistic = build("pessimistic")
        assert exact.conflict_free("writer", "reader")
        assert not pessimistic.conflict_free("writer", "reader")

    def test_urgency_permutation_preserves_conflicting_order(self):
        m = RulesModule("dut")
        shared = m.reg("shared", 8, signed=False)
        first = m.rule("first")
        first.write(shared, 1)
        second = m.rule("second")
        second.write(shared, 2)
        _top, schedule = m.compile(SchedulerOptions(urgency_seed=5))
        assert schedule.order.index("first") < schedule.order.index("second")

    def test_write_to_non_register_rejected(self):
        m = RulesModule("dut")
        x = m.input("x", 4)
        rule = m.rule("r")
        with pytest.raises(FrontendError):
            rule.write(x, 1)

    def test_double_compile_rejected(self):
        m = make_counter_rules()
        m.compile()
        with pytest.raises(FrontendError):
            m.compile()

    def test_bad_conflict_mode_rejected(self):
        with pytest.raises(FrontendError):
            SchedulerOptions(conflict_mode="magic")

    def test_unwritten_register_holds_value(self):
        m = RulesModule("dut")
        ghost = m.reg("ghost", 8, init=42, signed=False)
        m.output("ghost", ghost)
        r = m.rule("noop")
        r.write(m.reg("other", 1, signed=False), 1)
        top, _ = m.compile()
        sim = Simulator(top)
        sim.step(3)
        assert sim.peek("ghost").uint == 42


class TestBsvDesigns:
    def test_initial_bit_exact(self):
        result = verify_design(bsv_initial(), n_matrices=5)
        assert result.bit_exact

    def test_initial_timing_phased_fsm(self):
        # load(8) + rowpass(1) + colpass(1), drain overlapping next load.
        result = verify_design(bsv_initial(), n_matrices=5)
        assert result.periodicity == 10
        assert result.latency == 19

    def test_opt_bit_exact_with_period_9_bubble(self):
        # The paper's headline BSV observation: periodicity 9, latency 26.
        result = verify_design(bsv_opt(), n_matrices=6)
        assert result.bit_exact
        assert result.periodicity == 9
        assert result.latency == 26

    def test_opt_backpressure(self):
        design = bsv_opt()
        harness = StreamHarness(Simulator(design.top), design.spec)
        mats = random_matrices(3, seed=11)
        outs, _ = harness.run_matrices(mats, ready_pattern=every(3))
        assert outs == [chen_wang_idct(m) for m in mats]

    def test_initial_backpressure(self):
        design = bsv_initial()
        harness = StreamHarness(Simulator(design.top), design.spec)
        mats = random_matrices(2, seed=13)
        outs, _ = harness.run_matrices(mats, ready_pattern=every(2),
                                       valid_pattern=every(2))
        assert outs == [chen_wang_idct(m) for m in mats]

    def test_initial_area_close_to_verilog_initial(self):
        # The paper: BSV initial area is 97.2% of the Verilog initial.
        from repro.frontends.vlog import verilog_initial

        bsv = synthesize(elaborate(bsv_initial().top), max_dsp=0)
        verilog = synthesize(elaborate(verilog_initial().top), max_dsp=0)
        assert 0.8 <= bsv.area / verilog.area <= 1.1

    def test_opt_slightly_worse_than_verilog_opt(self):
        # The paper: BSV opt performance 80.2%, area 107.1% of Verilog opt.
        from repro.frontends.vlog import verilog_opt

        bsv_r = verify_design(bsv_opt(), n_matrices=5)
        v_r = verify_design(verilog_opt(), n_matrices=5)
        bsv_s = synthesize(elaborate(bsv_opt().top), max_dsp=0)
        v_s = synthesize(elaborate(verilog_opt().top), max_dsp=0)
        bsv_p = bsv_s.fmax_mhz / bsv_r.periodicity
        v_p = v_s.fmax_mhz / v_r.periodicity
        assert bsv_p < v_p  # the bubble costs throughput
        assert bsv_s.area > v_s.area

    def test_schedule_attached_to_design(self):
        design = bsv_opt()
        schedule = design.meta["schedule"]
        assert "accept" in schedule.order
        assert not schedule.conflict_free("accept", "start_cols")


def _bsc_sweep(start: int = 0, stop: int = 26) -> list:
    """Build the registry's BSC sweep points ``start:stop`` (the BSC
    series' first two points are the Table II pair)."""
    recipes = dict(fig1_design_lists(bsc_configs=26, bambu_configs=0,
                                     xls_stages=0))["BSC"][2:]
    return [recipe.build() for recipe in recipes[start:stop]]


class TestBscSweep:
    def test_sweep_has_26_configurations(self):
        designs = _bsc_sweep()
        assert len(designs) == 26
        assert len({d.config for d in designs}) == 26

    def test_sweep_settings_have_negligible_impact(self):
        # The paper: "the settings have a negligible impact on the
        # performance and area".  Check a sample of the sweep.
        sample = [bsv_opt()] + _bsc_sweep(11, 15)
        areas, periods = [], []
        for design in sample:
            result = verify_design(design, n_matrices=4)
            assert result.bit_exact
            report = synthesize(elaborate(design.top), max_dsp=0)
            areas.append(report.area)
            periods.append(result.periodicity)
        assert max(areas) / min(areas) < 1.1
        assert max(periods) - min(periods) <= 1
