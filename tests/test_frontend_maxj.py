"""Tests for the MaxJ-like dataflow frontend and PCIe manager model."""

import pytest

from repro.core.errors import FrontendError
from repro.eval.verify import random_matrices
from repro.frontends.maxj import (
    MaxKernel,
    PCIE3_X16,
    build_matrix_kernel,
    build_row_kernel,
    maxj_initial,
    maxj_opt,
    run_matrix_kernel,
    run_row_kernel,
    system_throughput,
    transpose_8x8,
    verify_maxj,
)
from repro.idct import chen_wang_idct
from repro.rtl import elaborate
from repro.sim import Simulator
from repro.synth import synthesize


class TestMaxLang:
    def test_every_op_adds_a_pipeline_stage(self):
        k = MaxKernel("k")
        a = k.input("a", 16)
        b = k.input("b", 16)
        total = a + b
        assert total.depth == 1
        product = total * 3
        assert product.depth == 2

    def test_operand_alignment_inserts_delays(self):
        k = MaxKernel("k")
        a = k.input("a", 16)
        deep = ((a + 1) + 2) + 3   # depth 3
        shallow = a                # depth 0
        combined = deep + shallow
        assert combined.depth == 4
        # Function check: the delayed operand must be time-aligned.
        k.output("y", combined)
        sim = Simulator(k.module)
        sim.poke("ce", 1)
        stimulus = [5, 100, -3, 17, 0, 0, 0, 0, 0]
        outs = []
        for tick, v in enumerate(stimulus):
            sim.poke("a", v & 0xFFFF)
            if tick >= 4:
                outs.append(sim.peek("y").sint)
            sim.step()
        assert outs == [(v + 6) + v for v in stimulus[:5]]

    def test_constant_shift_is_free(self):
        k = MaxKernel("k")
        a = k.input("a", 16)
        assert (a << 3).depth == 0
        assert (a >> 2).depth == 0

    def test_delayed_rejects_future_offsets(self):
        k = MaxKernel("k")
        a = k.input("a", 16)
        with pytest.raises(FrontendError):
            a.delayed(-1)

    def test_cross_kernel_values_rejected(self):
        k1, k2 = MaxKernel("k1"), MaxKernel("k2")
        a = k1.input("a", 8)
        b = k2.input("b", 8)
        with pytest.raises(FrontendError):
            a + b

    def test_output_vector_aligns_depths(self):
        k = MaxKernel("k")
        a = k.input("a", 8)
        shallow = a + 1            # depth 1
        deep = (a + 1) + 1         # depth 2
        depth = k.output_vector("y", [shallow, deep], 12)
        assert depth == 2

    def test_ce_freezes_everything(self):
        k = MaxKernel("k")
        a = k.input("a", 8)
        k.output("y", a + 0)
        sim = Simulator(k.module)
        sim.poke("a", 7)
        sim.poke("ce", 1)
        sim.step()
        assert sim.peek("y").sint == 7
        sim.poke("ce", 0)
        sim.poke("a", 99)
        sim.step(3)
        assert sim.peek("y").sint == 7


class TestTranspose:
    def test_stream_transpose_roundtrip(self):
        k = MaxKernel("k")
        row = k.input_vector("in_row", 8, 16)
        cols = transpose_8x8(k, row)
        k.output_vector("out", cols, 16)
        depth = k.pipeline_depth
        sim = Simulator(k.module)
        sim.poke("ce", 1)
        matrices = [
            [[m * 100 + r * 8 + c for c in range(8)] for r in range(8)]
            for m in range(3)
        ]
        beats = [row for m in matrices for row in m]
        outs = []
        for tick in range(len(beats) + depth):
            if tick < len(beats):
                word = 0
                for i, v in enumerate(beats[tick]):
                    word |= (v & 0xFFFF) << (16 * i)
                sim.poke("in_row", word)
            if tick >= depth:
                word = sim.peek_int("out")
                outs.append([(word >> (16 * i)) & 0xFFFF for i in range(8)])
            sim.step()
        # Column c of matrix m appears at beat m*8 + c.
        for m, matrix in enumerate(matrices):
            for c in range(8):
                expected = [matrix[r][c] for r in range(8)]
                assert outs[m * 8 + c] == expected


class TestManager:
    def test_pcie_link_constants(self):
        assert PCIE3_X16.pins == 59
        assert PCIE3_X16.bandwidth_bytes == 16e9

    def test_full_matrix_kernel_is_link_bound(self):
        # The paper: 16 GB/s / 1024 bits ~ 125 Mops beats the 400 MHz clock.
        report = system_throughput(fmax_mhz=403.0, ticks_per_op=1,
                                   input_bits_per_op=1024)
        assert report.bound == "link"
        assert report.throughput_mops == pytest.approx(125.0)

    def test_row_kernel_is_kernel_bound(self):
        report = system_throughput(fmax_mhz=403.0, ticks_per_op=8,
                                   input_bits_per_op=1024)
        assert report.bound == "kernel"
        assert report.throughput_mops == pytest.approx(403.0 / 8)


class TestIdctKernels:
    def test_matrix_kernel_bit_exact(self):
        assert verify_maxj(maxj_initial(), random_matrices(4))

    def test_row_kernel_bit_exact(self):
        assert verify_maxj(maxj_opt(), random_matrices(4))

    def test_matrix_kernel_accepts_one_matrix_per_tick(self):
        design = maxj_initial()
        mats = random_matrices(5, seed=3)
        outs = run_matrix_kernel(design, mats)
        assert outs == [chen_wang_idct(m) for m in mats]

    def test_row_kernel_streams_rows(self):
        design = maxj_opt()
        mats = random_matrices(3, seed=7)
        outs = run_row_kernel(design, mats)
        assert outs == [chen_wang_idct(m) for m in mats]

    @pytest.mark.parametrize("build", [maxj_initial, maxj_opt])
    def test_stepping_is_a_sim_stream_span(self, build):
        from repro import obs
        from repro.obs import trace as obs_trace

        design = build()
        netlist = elaborate(design.top)
        obs.disable()
        obs.clear()
        obs.enable()
        try:
            assert verify_maxj(design, random_matrices(2), netlist)
            spans = [r for r in obs_trace.events()
                     if r.name == "sim.stream" and r.kind == "span"]
        finally:
            obs.disable()
            obs.clear()
        assert len(spans) == 1
        meta = design.meta["maxj"]
        ticks = 2 * (1 if meta["ticks_per_op"] == 1 else 8) + meta["pipeline_depth"]
        assert spans[0].attrs == {"matrices": 2, "cycles": ticks}

    def test_deep_pipelines_make_highest_frequency(self):
        # The paper: MaxJ runs at 403 MHz, the fastest of all designs.
        from repro.frontends.vlog import verilog_opt

        maxj = synthesize(elaborate(maxj_initial().top), max_dsp=0)
        best_verilog = synthesize(elaborate(verilog_opt().top), max_dsp=0)
        assert maxj.fmax_mhz > 3 * best_verilog.fmax_mhz

    def test_row_kernel_much_smaller(self):
        initial = synthesize(elaborate(maxj_initial().top), max_dsp=0)
        opt = synthesize(elaborate(maxj_opt().top), max_dsp=0)
        assert initial.area > 2 * opt.area

    def test_ff_dominated_area(self):
        # Per-op registering makes MaxJ the FF-heaviest design.
        report = synthesize(elaborate(maxj_initial().top), max_dsp=0)
        assert report.n_ff > report.n_lut

    def test_metadata(self):
        design = maxj_initial()
        assert design.meta["maxj"]["ticks_per_op"] == 1
        assert design.meta["maxj"]["input_bits"] == 1024
        assert maxj_opt().meta["maxj"]["ticks_per_op"] == 8
