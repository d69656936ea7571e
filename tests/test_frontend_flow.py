"""Tests for the XLS-like flow frontend: auto-pipeliner and IDCT sweep."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FrontendError
from repro.eval.experiments import fig1_design_lists
from repro.eval.verify import verify_design
from repro.frontends.flow import build_kernel, pipeline_kernel, xls_design
from repro.frontends.hc.dsl import Sig
from repro.rtl import elaborate
from repro.sim import Simulator
from repro.synth import synthesize


def simple_kernel(inputs):
    """(a * b + c) >> 2 — a small but multi-level dataflow."""
    a, b, c = (s.as_signed() for s in inputs)
    return {"y": ((a * b + c) >> 2).resize(24)}


def build_simple(n_stages):
    return pipeline_kernel(
        "simple",
        [("a", 12), ("b", 12), ("c", 12)],
        simple_kernel,
        n_stages,
    )


def run_pipelined(result, stimulus):
    """Feed ``stimulus`` tuples; collect outputs after the latency."""
    sim = Simulator(result.module)
    if result.n_stages:
        sim.poke("ce", 1)
    outs = []
    for step, values in enumerate(stimulus + [(0, 0, 0)] * result.latency):
        if step < len(stimulus):
            a, b, c = values
            sim.poke("a", a & 0xFFF)
            sim.poke("b", b & 0xFFF)
            sim.poke("c", c & 0xFFF)
        if step >= result.latency:
            outs.append(sim.peek("y").sint)
        sim.step()
    return outs


def reference(values):
    return [((a * b + c) >> 2) for a, b, c in values]


class TestPipeliner:
    def test_comb_mode_has_no_registers(self):
        result = build_simple(0)
        assert result.latency == 0
        assert result.pipeline_ff_bits == 0
        netlist = elaborate(result.module)
        assert not netlist.registers

    @pytest.mark.parametrize("stages", [1, 2, 3, 5])
    def test_any_depth_preserves_function(self, stages):
        result = build_simple(stages)
        assert result.latency == stages
        values = [(100, -50, 7), (-2048, 2047, 0), (1, 1, 1), (500, 3, -8)]
        assert run_pipelined(result, values) == reference(values)

    @given(st.lists(st.tuples(st.integers(-2048, 2047),
                              st.integers(-2048, 2047),
                              st.integers(-2048, 2047)),
                    min_size=1, max_size=6),
           st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_property_pipelining_is_transparent(self, values, stages):
        result = build_simple(stages)
        assert run_pipelined(result, values) == reference(values)

    def test_deeper_pipeline_more_ff(self):
        shallow = build_simple(1)
        deep = build_simple(4)
        assert deep.pipeline_ff_bits > shallow.pipeline_ff_bits

    def test_deeper_pipeline_higher_fmax(self):
        comb = synthesize(elaborate(build_kernel(0).module), max_dsp=0)
        deep = synthesize(elaborate(build_kernel(6).module), max_dsp=0)
        assert deep.fmax_mhz > 2 * comb.fmax_mhz

    def test_stage_counts_cover_all_nodes(self):
        result = build_simple(3)
        assert len(result.stage_node_counts) == 3
        assert sum(result.stage_node_counts) > 0

    def test_negative_stages_rejected(self):
        with pytest.raises(FrontendError):
            build_simple(-1)

    def test_empty_kernel_rejected(self):
        with pytest.raises(FrontendError):
            pipeline_kernel("empty", [("a", 4)], lambda ins: {}, 2)

    def test_ce_freezes_pipeline(self):
        result = build_simple(2)
        sim = Simulator(result.module)
        sim.poke("ce", 1)
        sim.poke("a", 10)
        sim.poke("b", 10)
        sim.poke("c", 0)
        sim.step(2)
        assert sim.peek("y").sint == 25
        sim.poke("ce", 0)
        sim.poke("a", 99)
        sim.step(5)
        assert sim.peek("y").sint == 25  # frozen


class TestXlsDesigns:
    def test_initial_comb_is_bit_exact(self):
        result = verify_design(xls_design(0), n_matrices=4)
        assert result.bit_exact
        assert result.latency == 17
        assert result.periodicity == 8

    @pytest.mark.parametrize("stages", [1, 3, 8])
    def test_pipelined_bit_exact_latency_17_plus_n(self, stages):
        result = verify_design(xls_design(stages), n_matrices=4)
        assert result.bit_exact
        assert result.latency == 17 + stages
        assert result.periodicity == 8  # adapter-bound, as the paper notes

    def test_sweep_has_19_points(self):
        recipes = dict(fig1_design_lists(bsc_configs=0, bambu_configs=0,
                                         xls_stages=18))["XLS"]
        designs = [recipe.build() for recipe in recipes]
        assert len(designs) == 19
        stages = sorted(d.meta["pipeline"].n_stages for d in designs)
        assert stages == list(range(19))

    def test_frequency_grows_with_stages(self):
        f0 = synthesize(elaborate(xls_design(0).top), max_dsp=0).fmax_mhz
        f8 = synthesize(elaborate(xls_design(8).top), max_dsp=0).fmax_mhz
        assert f8 > 3 * f0

    def test_area_grows_with_stages(self):
        a2 = synthesize(elaborate(xls_design(2).top), max_dsp=0).area
        a10 = synthesize(elaborate(xls_design(10).top), max_dsp=0).area
        assert a10 > a2

    def test_quality_peaks_at_moderate_depth(self):
        # The paper's XLS story: deep pipelines buy frequency but the
        # sequential adapter caps throughput, so Q rises then falls.
        def quality(stages):
            design = xls_design(stages)
            run = verify_design(design, n_matrices=4)
            report = synthesize(elaborate(design.top), max_dsp=0)
            return (report.fmax_mhz / run.periodicity) / report.area

        q0, q4, q16 = quality(0), quality(4), quality(16)
        assert q4 > q0
        assert q4 > q16

    def test_sources_include_config(self):
        design = xls_design(8)
        kinds = {s.kind for s in design.sources}
        assert "config" in kinds
        config = next(s for s in design.sources if s.kind == "config")
        assert "pipeline_stages = 8" in config.text
