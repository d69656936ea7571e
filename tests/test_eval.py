"""Tests for the evaluation harness: LOC, metrics, Table I/II, Fig. 1."""

import pytest

from repro.eval import (
    TOOL_TABLE,
    count_loc,
    delta_loc,
    design_loc,
    generate_table1,
    generate_table2,
    measure_design,
    render_table1,
    render_table2,
)
from repro.eval.experiments import PAIRS, generate_fig1, render_fig1
from repro.frontends.base import Design, SourceArtifact


class TestLoc:
    def test_counts_code_lines(self):
        assert count_loc("int a;\nint b;\n") == 2

    def test_blank_and_comment_lines_skipped(self):
        text = """
        // comment
        int a;   // trailing

        /* block
           comment */
        int b;
        """
        assert count_loc(text) == 2

    def test_pragmas_count_as_settings(self):
        text = "#pragma HLS PIPELINE\nint a;\n# plain comment\n"
        assert count_loc(text) == 2

    def test_python_docstrings_stripped(self):
        text = '''def f():
    """A docstring
    spanning lines."""
    return 1
'''
        assert count_loc(text) == 2

    def test_delta_loc_counts_changes(self):
        def make(lines):
            d = Design(name="d", language="x", tool="t", config="c",
                       top=None, spec=None,
                       sources=[SourceArtifact("s", "\n".join(lines))])
            return d

        a = make(["one;", "two;", "three;"])
        b = make(["one;", "changed;", "three;", "four;"])
        assert delta_loc(a, b) == 3  # one replaced (2) + one added (1)


class TestTable1:
    def test_seven_rows(self):
        assert len(generate_table1()) == 7

    def test_matches_paper_classification(self):
        by_tool = {e.tool: e for e in TOOL_TABLE}
        assert by_tool["Vivado"].tool_type == "LS/PR"
        assert by_tool["Chisel"].tool_type == "HC"
        assert by_tool["BSC"].tool_type == "HC"
        assert by_tool["XLS"].tool_type == "HLS"
        assert by_tool["MaxCompiler"].openness == "Commercial"
        assert by_tool["Bambu"].openness == "Open-source"

    def test_render(self):
        text = render_table1()
        assert "Verilog" in text and "MaxCompiler" in text


class TestMeasurement:
    def test_measure_verilog_opt(self):
        from repro.frontends.vlog import verilog_opt

        measured = measure_design(verilog_opt())
        assert measured.bit_exact
        assert measured.periodicity == 8
        assert measured.area == measured.lut_star + measured.ff_star
        assert measured.quality > 0
        assert measured.loc > 0

    def test_measure_is_cached(self):
        from repro.frontends.vlog import verilog_opt

        first = measure_design(verilog_opt())
        second = measure_design(verilog_opt())
        assert first is second

    def test_measure_maxj_uses_manager(self):
        from repro.frontends.maxj import maxj_initial

        measured = measure_design(maxj_initial())
        assert measured.n_io == 59  # PCIe pins, as the paper reports
        assert measured.extra["bound"] == "link"


class TestOneNetlistPerPoint:
    """Simulation and synthesis of a design point share one netlist."""

    @pytest.fixture
    def traced(self):
        from repro import obs
        from repro.eval.measure import clear_measure_cache

        clear_measure_cache()
        obs.disable()
        obs.clear()
        obs.enable()
        yield obs
        obs.disable()
        obs.clear()

    @staticmethod
    def spans(obs, name):
        return [r for r in obs.trace.events() if r.name == name]

    @pytest.mark.parametrize("factory", ["vlog.verilog_opt", "maxj.maxj_initial",
                                         "maxj.maxj_opt"])
    def test_one_elaborate_per_measurement(self, traced, factory):
        import importlib

        package, func = factory.split(".")
        design = getattr(importlib.import_module(f"repro.frontends.{package}"), func)()
        traced.clear()
        measure_design(design, use_cache=False)
        assert len(self.spans(traced, "elaborate")) == 1
        assert len(self.spans(traced, "synth")) == 1

    def test_synth_pair_matches_two_synthesize_calls(self):
        import dataclasses

        from repro.rtl import elaborate
        from repro.synth import synthesize, synthesize_pair

        for key, build in PAIRS.items():
            for design in build():
                netlist = elaborate(design.top)
                pair = synthesize_pair(netlist)
                single = (synthesize(netlist), synthesize(netlist, max_dsp=0))
                assert [dataclasses.asdict(r) for r in pair] == \
                    [dataclasses.asdict(r) for r in single], (key, design.name)

    def test_cached_netlist_feeds_the_simulator(self, tmp_path, traced):
        # A batch-engine measurement never reads the measured artifact,
        # so it simulates the netlist unpickled from the cache, and must
        # measure exactly what an uncached run measures.
        from repro.cache import ArtifactCache, activate
        from repro.eval.measure import clear_measure_cache
        from repro.frontends.vlog import verilog_initial

        design = verilog_initial()
        fresh = measure_design(design, n_matrices=2, use_cache=False,
                               engine="batch")
        cache = ArtifactCache(tmp_path / "c")
        with activate(cache):
            measure_design(design, n_matrices=2, engine="compiled")
            clear_measure_cache()
            traced.clear()
            cached = measure_design(design, n_matrices=2, engine="batch")
        assert self.spans(traced, "elaborate") == []  # netlist came from disk
        assert cached.to_dict() == fresh.to_dict()


class TestTable2:
    @pytest.fixture(scope="class")
    def table(self):
        return generate_table2()

    def test_all_seven_tools_present(self, table):
        assert set(table.columns) == set(PAIRS)

    def test_verilog_is_the_baseline(self, table):
        verilog = table.column("Verilog/Vivado")
        assert verilog.automation_initial == 0.0
        assert verilog.automation_opt == 0.0
        assert verilog.controllability == pytest.approx(100.0)

    def test_all_designs_bit_exact(self, table):
        for column in table.columns.values():
            assert column.initial.bit_exact, column.key
            assert column.optimized.bit_exact, column.key

    def test_optimization_always_improves_quality(self, table):
        for column in table.columns.values():
            assert column.optimized.quality > column.initial.quality, column.key

    def test_shape_maxj_highest_throughput(self, table):
        # The paper: MaxJ (PCIe) dwarfs the AXI-Stream designs.
        maxj = table.column("MaxJ/MaxCompiler")
        others = [c for k, c in table.columns.items() if k != "MaxJ/MaxCompiler"]
        assert maxj.initial.throughput_mops > max(
            c.initial.throughput_mops for c in others
        )

    def test_shape_c_tools_slowest(self, table):
        # Sequential memory-bound HLS: periodicity in the hundreds.
        for key in ("C/Bambu", "C/Vivado HLS"):
            assert table.column(key).initial.periodicity > 100

    def test_shape_bambu_least_controllable(self, table):
        # The paper's C_Q ordering: Bambu is far behind everything else.
        bambu = table.column("C/Bambu").controllability
        for key, column in table.columns.items():
            if key != "C/Bambu":
                assert column.controllability > bambu

    def test_shape_hc_tools_near_verilog(self, table):
        # Chisel and BSV track hand-written Verilog within tens of percent.
        for key in ("Chisel/Chisel", "BSV/BSC"):
            assert 60 <= table.column(key).controllability <= 120

    def test_shape_xls_controllability_low(self, table):
        # The paper: 38.3% (deep pipelines can't beat the adapter bound).
        xls = table.column("DSLX/XLS").controllability
        assert 25 <= xls <= 60

    def test_bsv_bubble_in_periodicity(self, table):
        assert table.column("BSV/BSC").optimized.periodicity == 9

    def test_xls_flexibility_highest_among_hls(self, table):
        # One-knob DSE: tiny dL for a large quality change.
        xls = table.column("DSLX/XLS")
        bambu = table.column("C/Bambu")
        assert xls.delta_loc < 20
        assert xls.flexibility > bambu.flexibility

    def test_render_contains_all_rows(self, table):
        text = render_table2(table)
        for label in ("LOC", "Automation", "Quality", "Controllability",
                      "Flexibility", "Frequency", "Throughput", "Latency",
                      "Periodicity", "N_DSP", "N_IO"):
            assert label in text

    def test_dsp_inference_differentiates_starred_area(self, table):
        verilog = table.column("Verilog/Vivado")
        assert verilog.initial.dsp > 50       # paper: 160
        assert verilog.initial.lut < verilog.initial.lut_star


class TestFig1:
    def test_small_sweep(self):
        series = generate_fig1(bsc_configs=2, bambu_configs=2, xls_stages=2)
        by_tool = {s.tool: s for s in series}
        assert len(by_tool["XLS"].points) == 3  # comb + 2 stages
        assert len(by_tool["Vivado"].points) == 3
        assert len(by_tool["MaxCompiler"].points) == 2
        text = render_fig1(series)
        assert "MOPS" in text

    def test_xls_sweep_monotone_area(self):
        series = generate_fig1(bsc_configs=0, bambu_configs=0, xls_stages=4)
        xls = next(s for s in series if s.tool == "XLS")
        areas = [a for _c, _p, a in xls.points]
        assert areas[-1] > areas[0]  # deeper pipeline, more area
