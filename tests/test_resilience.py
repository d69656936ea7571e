"""Tests for ``repro.resilience``: taxonomy, budgets, runner, checkpoint
resume identity, and the fault-injection campaign."""

import json
from types import SimpleNamespace

import pytest

from repro.core.errors import (
    BudgetExceeded,
    BuildError,
    HarnessTimeout,
    ReproError,
    ScheduleError,
    SimulationError,
    SweepInterrupted,
)
from repro.resilience import budget as res_budget
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.errors import failure_reason, failure_record
from repro.resilience.runner import (
    DesignResult,
    RunnerConfig,
    SweepRunner,
    result_from_record,
)


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------

class TestTaxonomy:
    def test_hierarchy(self):
        # Schedule failures are build failures; harness timeouts are
        # simulation failures; everything is a ReproError.
        assert issubclass(ScheduleError, BuildError)
        assert issubclass(HarnessTimeout, SimulationError)
        for cls in (BuildError, SimulationError, BudgetExceeded,
                    SweepInterrupted):
            assert issubclass(cls, ReproError)

    def test_plain_message_unchanged(self):
        err = ScheduleError("out of ports")
        assert str(err) == "out of ports"
        assert err.design is None and err.phase is None and err.context == {}

    def test_context_suffix_and_record(self):
        err = ScheduleError("out of ports", design="d1", phase="chls.schedule",
                            array="mem", ports=2, bad=object())
        assert str(err) == "out of ports [design=d1, phase=chls.schedule]"
        record = err.record()
        assert record["type"] == "ScheduleError"
        assert record["design"] == "d1"
        assert record["context"] == {"array": "mem", "ports": 2}  # bad dropped

    def test_with_context_fills_but_never_overwrites(self):
        err = ReproError("x", phase="sim")
        err.with_context(design="d2", phase="other")
        assert err.design == "d2"
        assert err.phase == "sim"

    def test_harness_timeout_attributes(self):
        err = HarnessTimeout("hung", cycles=900, beats_in=5, beats_out=2)
        assert (err.cycles, err.beats_in, err.beats_out) == (900, 5, 2)
        assert isinstance(err, SimulationError)

    def test_failure_record_for_foreign_exception(self):
        record = failure_record(ValueError("boom"), design="d", phase="p")
        assert record == {"type": "ValueError", "message": "boom",
                          "design": "d", "phase": "p", "context": {}}
        assert failure_reason(record) == "ValueError"
        assert failure_reason({}) == "error"


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------

class TestBudget:
    def test_cycle_budget_raises_on_overflow(self):
        budget = res_budget.Budget(max_cycles=10, design="d", phase="measure")
        budget.charge(10)
        with pytest.raises(BudgetExceeded) as info:
            budget.charge()
        assert info.value.design == "d"
        assert info.value.context["limit_cycles"] == 10

    def test_wall_budget_checked_at_interval(self):
        budget = res_budget.Budget(wall_s=0.0)
        with pytest.raises(BudgetExceeded):
            budget.charge(res_budget.WALL_CHECK_INTERVAL)

    def test_charge_is_noop_when_unarmed(self):
        assert res_budget.active() is None
        res_budget.charge(10_000)  # must not raise

    def test_limit_arms_and_restores(self):
        budget = res_budget.Budget(max_cycles=5)
        with res_budget.limit(budget):
            assert res_budget.active() is budget
            with pytest.raises(BudgetExceeded):
                res_budget.charge(6)
        assert res_budget.active() is None

    def test_simulator_charges_active_budget(self):
        from repro.frontends.vlog import verilog_initial
        from repro.sim import Simulator

        sim = Simulator(verilog_initial().top)
        with res_budget.limit(res_budget.Budget(max_cycles=3)):
            sim.step(3)
            with pytest.raises(BudgetExceeded):
                sim.step()
        sim.step()  # unarmed again: no budget applies


# ----------------------------------------------------------------------
# harness timeout
# ----------------------------------------------------------------------

class TestHarnessTimeout:
    @staticmethod
    def timeout_error(lanes):
        """The timeout of two matrices per lane under a 4-cycle budget."""
        from repro.axis.harness import StreamHarness
        from repro.eval.verify import random_matrices
        from repro.frontends.vlog import verilog_initial
        from repro.sim import Simulator

        design = verilog_initial()
        matrices = random_matrices(2)
        with pytest.raises(HarnessTimeout) as info:
            if lanes == 1:
                harness = StreamHarness(Simulator(design.top), design.spec)
                harness.run_matrices(matrices, timeout=4)
            else:
                harness = StreamHarness(
                    Simulator(design.top, engine="batch", lanes=lanes),
                    design.spec)
                harness.run_blocks(matrices * lanes, timeout=4)
        return info.value

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_timeout_carries_progress(self, lanes):
        err = self.timeout_error(lanes)
        assert err.phase == ("sim.stream" if lanes == 1 else "sim.batch.stream")
        assert err.cycles > 4
        assert err.beats_out < 16 * lanes  # never produced both matrices
        # Every lane streams the one-lane run's matrices in lockstep.
        alone = self.timeout_error(1)
        assert (err.cycles, err.beats_in, err.beats_out) == (
            alone.cycles, lanes * alone.beats_in, lanes * alone.beats_out)


# ----------------------------------------------------------------------
# sweep runner
# ----------------------------------------------------------------------

def _design(name="dut"):
    return SimpleNamespace(name=name, config="initial")


def _measured(name="dut"):
    from repro.eval.measure import Measured

    return Measured(name=name, language="V", tool="T", config="initial",
                    loc=10, fmax_mhz=100.0, t_clk_ns=10.0, latency=8,
                    periodicity=8, throughput_mops=1.5, lut_star=20,
                    ff_star=10, lut=20, ff=10, dsp=0, n_io=4)


class TestSweepRunner:
    def test_retry_then_success(self):
        calls = []

        def flaky(design, **kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise SimulationError("transient", phase="sim")
            return "measured"

        runner = SweepRunner(measure_fn=flaky)
        result = runner.measure(_design())
        assert result.ok and result.measured == "measured"
        assert result.attempts == 2 and not result.degraded
        assert runner.stats["retries"] == 1

    def test_degraded_final_attempt(self):
        def fails_unless_degraded(design, **kwargs):
            if kwargs.get("engine") != "interp":
                raise SimulationError("compiled engine broken")
            return "degraded-measure"

        runner = SweepRunner(measure_fn=fails_unless_degraded)
        result = runner.measure(_design())
        assert result.ok and result.degraded
        assert result.attempts == 3  # normal, retry, degraded

    def test_total_failure_is_contained(self):
        def always_fails(design, **kwargs):
            raise ScheduleError("no schedule", phase="chls.schedule")

        runner = SweepRunner(measure_fn=always_fails)
        result = runner.measure(_design())
        assert not result.ok
        assert result.error["type"] == "ScheduleError"
        assert result.reason == "ScheduleError"
        assert runner.stats["failed"] == 1

    def test_injected_failure_skips_measurement(self):
        def never_called(design, **kwargs):  # pragma: no cover
            raise AssertionError("measure_fn must not run for injected fault")

        runner = SweepRunner(measure_fn=never_called,
                             inject_failures={"dut"})
        result = runner.measure(_design())
        assert not result.ok and result.error["phase"] == "injected"

    def test_abort_after_raises_after_recording(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "ck.jsonl")
        runner = SweepRunner(measure_fn=lambda d, **kw: _measured(d.name),
                             checkpoint=checkpoint, abort_after=2)
        runner.measure(_design("a"))
        with pytest.raises(SweepInterrupted):
            runner.measure(_design("b"))
        # Both results were recorded before the interrupt fired.
        assert "a" in checkpoint and "b" in checkpoint

    def test_checkpoint_hit_skips_measure(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        first = SweepRunner(measure_fn=lambda d, **kw: _measured(d.name),
                            checkpoint=Checkpoint(path))
        first.measure(_design())

        def never_called(design, **kwargs):  # pragma: no cover
            raise AssertionError("resumed design must come from checkpoint")

        resumed = SweepRunner(measure_fn=never_called,
                              checkpoint=Checkpoint(path, resume=True))
        result = resumed.measure(_design())
        assert result.from_checkpoint
        assert resumed.stats["checkpoint_hits"] == 1


# ----------------------------------------------------------------------
# checkpoint store
# ----------------------------------------------------------------------

class TestCheckpoint:
    def test_measured_round_trip_is_exact(self, tmp_path):
        from repro.eval.measure import measure_design
        from repro.frontends.vlog import verilog_initial

        measured = measure_design(verilog_initial())
        path = tmp_path / "ck.jsonl"
        Checkpoint(path).record(measured.name, status="ok", measured=measured)
        record = Checkpoint(path, resume=True).get(measured.name)
        assert result_from_record(record).measured == measured

    def test_fresh_checkpoint_truncates(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        Checkpoint(path).record("a", status="ok")
        assert "a" in Checkpoint(path, resume=True)
        assert "a" not in Checkpoint(path, resume=False)

    def test_failure_record_round_trip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        error = failure_record(ScheduleError("x", design="a", phase="p"))
        Checkpoint(path).record("a", status="failed", error=error, attempts=3)
        record = Checkpoint(path, resume=True).get("a")
        assert record["status"] == "failed"
        assert record["error"]["type"] == "ScheduleError"
        assert record["attempts"] == 3

    def test_torn_last_record_is_dropped_at_every_offset(self, tmp_path):
        """A SIGKILL mid-append leaves the last record cut at some byte.
        Resume must keep exactly the intact records, the next record
        must start on its own line, and a second resume must see it."""
        whole = tmp_path / "whole.jsonl"
        intact = Checkpoint(whole)
        intact.record("a", status="ok", measured=_measured("a"))
        intact.record("b", status="ok", measured=_measured("b"))
        data = whole.read_bytes()
        first = data.index(b"\n") + 1
        path = tmp_path / "ck.jsonl"
        for cut in range(first, len(data)):
            path.write_bytes(data[:cut])
            resumed = Checkpoint(path, resume=True)
            assert resumed.names() == ["a"], cut
            resumed.record("c", status="ok", measured=_measured("c"))
            lines = path.read_bytes().splitlines(keepends=True)
            assert lines[0] == data[:first], cut
            assert [json.loads(line)["design"] for line in lines] \
                == ["a", "c"], cut
            again = Checkpoint(path, resume=True)
            assert again.names() == ["a", "c"], cut
            assert again.get("c")["measured"] == _measured("c").to_dict()


# ----------------------------------------------------------------------
# interrupted-then-resumed sweep identity (the PR's core guarantee)
# ----------------------------------------------------------------------

class TestResumeIdentity:
    FIG1_SIZES = dict(bsc_configs=1, bambu_configs=1, xls_stages=1)

    def test_fig1_resumed_equals_uninterrupted(self, tmp_path):
        from repro.eval.experiments import generate_fig1, render_fig1
        from repro.eval.measure import clear_measure_cache

        config = RunnerConfig(n_matrices=2)
        clear_measure_cache()
        fresh = render_fig1(generate_fig1(
            runner=SweepRunner(config=config), **self.FIG1_SIZES))

        # Interrupt a checkpointed run partway through...
        path = tmp_path / "fig1.jsonl"
        clear_measure_cache()
        with pytest.raises(SweepInterrupted):
            generate_fig1(runner=SweepRunner(
                config=config, checkpoint=Checkpoint(path), abort_after=4),
                **self.FIG1_SIZES)
        assert 0 < len(Checkpoint(path, resume=True)) <= 4

        # ...then resume it with a fresh process-equivalent state.
        clear_measure_cache()
        resumed_runner = SweepRunner(config=config,
                                     checkpoint=Checkpoint(path, resume=True))
        resumed = render_fig1(generate_fig1(runner=resumed_runner,
                                            **self.FIG1_SIZES))
        assert resumed == fresh
        assert resumed_runner.stats["checkpoint_hits"] > 0

    def test_fig1_reports_injected_failure(self):
        from repro.eval.experiments import generate_fig1, render_fig1

        series = generate_fig1(
            runner=SweepRunner(config=RunnerConfig(n_matrices=2),
                               inject_failures={"chisel-opt"}),
            **self.FIG1_SIZES)
        chisel = next(s for s in series if s.tool == "Chisel")
        assert ("opt", "ScheduleError") in chisel.failures
        assert all(config != "opt" for config, _, _ in chisel.points)
        assert "FAILED(ScheduleError)" in render_fig1(series)


class TestTable2Failures:
    def test_failed_column_renders_failed_cells(self):
        from repro.eval.experiments import generate_table2, render_table2
        from repro.eval.report import table2_markdown, write_markdown_report

        runner = SweepRunner(config=RunnerConfig(n_matrices=2),
                             inject_failures={"chisel-initial"})
        table = generate_table2(tools=["Chisel/Chisel"], runner=runner)
        column = table.columns["Chisel/Chisel"]
        assert column.failed and column.failure_reason == "ScheduleError"
        assert "FAILED(" in render_table2(table)
        assert "FAILED(ScheduleError)" in table2_markdown(table)
        assert "FAILED(ScheduleError)" in write_markdown_report(table)

    def test_baseline_failure_raises(self):
        from repro.core.errors import EvaluationError
        from repro.eval.experiments import generate_table2

        runner = SweepRunner(config=RunnerConfig(n_matrices=2),
                             inject_failures={"verilog-initial"})
        with pytest.raises(EvaluationError):
            generate_table2(tools=["Verilog/Vivado"], runner=runner)


# ----------------------------------------------------------------------
# fault injection and the mutation campaign
# ----------------------------------------------------------------------

class TestFaults:
    def test_apply_fault_semantics(self):
        from repro.resilience.faults import apply_fault
        from repro.rtl.ir import Const, eval_expr

        value = Const(0b1010, 4)
        read = read_mem = None
        assert eval_expr(apply_fault(value, "stuck0", 1, 4), read, read_mem) \
            == 0b1000
        assert eval_expr(apply_fault(value, "stuck1", 0, 4), read, read_mem) \
            == 0b1011
        assert eval_expr(apply_fault(value, "flip", 3, 4), read, read_mem) \
            == 0b0010

    def test_inject_leaves_original_untouched(self):
        from repro.frontends.vlog import verilog_initial
        from repro.resilience.faults import enumerate_sites, inject
        from repro.rtl import elaborate

        netlist = elaborate(verilog_initial().top)
        site = enumerate_sites(netlist)[0]
        mutant = inject(netlist, site, "flip")
        assert mutant is not netlist
        assert netlist.assigns[site.index][1] is not mutant.assigns[site.index][1]
        # All other entries are shared, not copied.
        assert netlist.assigns[site.index + 1] is mutant.assigns[site.index + 1]

    def test_output_bit_flips_always_detected(self):
        from repro.frontends.vlog import verilog_initial
        from repro.resilience.campaign import run_mutant
        from repro.resilience.faults import inject, output_data_sites
        from repro.rtl import elaborate

        design = verilog_initial()
        netlist = elaborate(design.top)
        sites = output_data_sites(netlist)
        assert sites, "wrapped design must expose output data sites"
        for site in sites[:2]:
            verdict = run_mutant(design, inject(netlist, site, "flip"),
                                 n_matrices=1)
            assert verdict is not None, site.describe("flip")

    def test_pristine_netlist_passes_all_batteries(self):
        from repro.frontends.vlog import verilog_initial
        from repro.resilience.campaign import run_mutant
        from repro.rtl import elaborate

        design = verilog_initial()
        assert run_mutant(design, elaborate(design.top), n_matrices=1) is None


class TestCampaign:
    def test_verilog_initial_mutants_detected_or_equivalent(self):
        from repro.frontends.vlog import verilog_initial
        from repro.resilience.campaign import run_campaign

        report = run_campaign(verilog_initial(), limit=12, seed=1,
                              n_matrices=2, equiv_matrices=8)
        assert report.total == 12
        # The PR's acceptance bar: ≥95% of non-equivalent single-fault
        # mutants are flagged by verify_design; the rest are documented.
        assert report.detection_rate >= 0.95
        for outcome in report.outcomes:
            assert outcome.detected or outcome.verdict == "equivalent"
        payload = report.to_dict()
        assert payload["detection_rate"] >= 0.95
        assert set(payload) >= {"strict_rate", "equivalent", "escalated"}
