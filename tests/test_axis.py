"""Tests for the AXI-Stream wrapper generator and stream harness."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axis import (
    AxisPorts,
    KernelSpec,
    KernelStyle,
    StreamHarness,
    always,
    build_axis_wrapper,
    every,
    pack_row,
    unpack_row,
)
from repro.core.errors import FrontendError, ProtocolError, SimulationError
from repro.rtl import Module, ops
from repro.rtl.ir import Ref
from repro.sim import Simulator

ROWS, COLS, IN_W, OUT_W = 8, 8, 12, 9


def comb_spec(**kw):
    return KernelSpec(style=KernelStyle.COMB_MATRIX, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W, **kw)


def make_comb_kernel():
    """Combinational kernel: every element maps to (x >> 3) in 9 bits."""
    spec = comb_spec()
    m = Module("trunc_kernel")
    in_mat = m.input("in_mat", spec.in_mat_bits)
    out_mat = m.output("out_mat", spec.out_mat_bits)
    elems = []
    for i in range(ROWS * COLS):
        elem = ops.bits(in_mat, (i + 1) * IN_W - 1, i * IN_W)
        elems.append(ops.bits(ops.ashr(elem, 3), OUT_W - 1, 0))
    m.assign(out_mat, ops.cat(*reversed(elems)))
    return m, spec


def make_pipelined_kernel(latency=2):
    """Same transform, cut into ``latency`` register stages (with ce)."""
    spec = KernelSpec(style=KernelStyle.PIPELINED_MATRIX, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W, latency=latency)
    m = Module(f"pipe_kernel_{latency}")
    ce = m.input("ce", 1)
    in_mat = m.input("in_mat", spec.in_mat_bits)
    out_mat = m.output("out_mat", spec.out_mat_bits)
    elems = []
    for i in range(ROWS * COLS):
        elem = ops.bits(in_mat, (i + 1) * IN_W - 1, i * IN_W)
        elems.append(ops.bits(ops.ashr(elem, 3), OUT_W - 1, 0))
    value = ops.cat(*reversed(elems))
    for stage in range(latency):
        value = Ref(m.reg(f"stage{stage}", spec.out_mat_bits, next=value, en=Ref(ce)))
    m.assign(out_mat, value)
    return m, spec


def make_row_serial_kernel(latency=1):
    """Row-serial kernel: registered per-row transform, valid piped along."""
    spec = KernelSpec(style=KernelStyle.ROW_SERIAL, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W, latency=latency)
    m = Module("row_kernel")
    ce = m.input("ce", 1)
    in_row = m.input("in_row", spec.in_row_bits)
    in_valid = m.input("in_valid", 1)
    out_row = m.output("out_row", spec.out_row_bits)
    out_valid = m.output("out_valid", 1)
    elems = []
    for i in range(COLS):
        elem = ops.bits(in_row, (i + 1) * IN_W - 1, i * IN_W)
        elems.append(ops.bits(ops.ashr(elem, 3), OUT_W - 1, 0))
    data = ops.cat(*reversed(elems))
    valid = ops.as_expr(Ref(in_valid))
    for stage in range(latency):
        data = Ref(m.reg(f"d{stage}", spec.out_row_bits, next=data, en=Ref(ce)))
        valid = Ref(m.reg(f"v{stage}", 1, next=valid, en=Ref(ce)))
    m.assign(out_row, data)
    m.assign(out_valid, valid)
    return m, spec


def reference(matrix):
    return [[x >> 3 for x in row] for row in matrix]


def make_matrices(count=4):
    return [
        [[(mi * 64 + r * 8 + c) * 3 - 900 for c in range(COLS)] for r in range(ROWS)]
        for mi in range(count)
    ]


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        row = [-2048, 2047, 0, -1, 1, 100, -100, 5]
        word = pack_row(row, 12)
        assert unpack_row(word, 8, 12) == row

    def test_unpack_unsigned(self):
        word = pack_row([255, 1], 9)
        assert unpack_row(word, 2, 9, signed=False) == [255, 1]


class TestCombWrapper:
    def make(self, allow_overlap=True):
        kernel, spec = make_comb_kernel()
        top = build_axis_wrapper(kernel, spec, allow_capture_overlap=allow_overlap)
        return StreamHarness(Simulator(top), spec)

    def test_functional(self):
        harness = self.make()
        mats = make_matrices(3)
        outs, _timing = harness.run_matrices(mats)
        assert outs == [reference(m) for m in mats]

    def test_latency_17_periodicity_8(self):
        # The paper's initial Verilog design timing.
        harness = self.make()
        _outs, timing = harness.run_matrices(make_matrices(5))
        assert timing.latency == 17
        assert timing.periodicity == 8

    def test_capture_bubble_gives_periodicity_9(self):
        # The paper's BSV one-cycle bubble.
        harness = self.make(allow_overlap=False)
        _outs, timing = harness.run_matrices(make_matrices(5))
        assert timing.periodicity == 9

    def test_slow_source(self):
        harness = self.make()
        mats = make_matrices(2)
        outs, timing = harness.run_matrices(mats, valid_pattern=every(3))
        assert outs == [reference(m) for m in mats]
        assert timing.periodicity >= 8

    def test_backpressure_correctness(self):
        harness = self.make()
        mats = make_matrices(3)
        outs, _ = harness.run_matrices(mats, ready_pattern=every(2))
        assert outs == [reference(m) for m in mats]

    def test_joint_throttling(self):
        harness = self.make()
        mats = make_matrices(2)
        outs, _ = harness.run_matrices(
            mats, valid_pattern=every(2), ready_pattern=every(3, offset=1)
        )
        assert outs == [reference(m) for m in mats]

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_tlast_misalignment_flags_error(self, lanes):
        kernel, spec = make_comb_kernel()
        top = build_axis_wrapper(kernel, spec)
        sim = Simulator(top, engine="compiled" if lanes == 1 else "batch",
                        lanes=lanes)
        # 4-row frames into an 8-row wrapper: TLAST arrives on the 4th
        # beat, misaligned, and the wrapper latches its sticky error.
        harness = StreamHarness(sim, dataclasses.replace(spec, rows=4))
        blocks = [matrix[:4] for matrix in make_matrices(lanes)]
        with pytest.raises(ProtocolError,
                           match="^wrapper raised sticky error at cycle 4$"):
            harness.run_blocks(blocks)
        assert sim.peek_slot(sim.slot(AxisPorts.ERROR)) != 0

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_empty_stream_raises_a_simulation_error(self, lanes):
        kernel, spec = make_comb_kernel()
        top = build_axis_wrapper(kernel, spec)
        sim = Simulator(top, engine="compiled" if lanes == 1 else "batch",
                        lanes=lanes)
        harness = StreamHarness(sim, spec)
        phase = "sim.stream" if lanes == 1 else "sim.batch.stream"
        with pytest.raises(SimulationError, match="no matrices") as info:
            harness.run_blocks([])
        assert info.value.phase == phase
        with pytest.raises(SimulationError, match="no matrices") as info:
            harness.run_matrices([])
        assert info.value.phase == "sim.stream"

    def test_missing_ports_rejected(self):
        bad = Module("bad")
        bad.input("x", 8)
        y = bad.output("y", 8)
        bad.assign(y, ops.const(0, 8))
        with pytest.raises(FrontendError):
            build_axis_wrapper(bad, comb_spec())


class TestPipelinedWrapper:
    def make(self, latency):
        kernel, spec = make_pipelined_kernel(latency)
        top = build_axis_wrapper(kernel, spec)
        return StreamHarness(Simulator(top), spec)

    @pytest.mark.parametrize("latency", [1, 2, 4, 8])
    def test_functional_and_latency(self, latency):
        harness = self.make(latency)
        mats = make_matrices(4)
        outs, timing = harness.run_matrices(mats)
        assert outs == [reference(m) for m in mats]
        assert timing.latency == 17 + latency
        assert timing.periodicity == 8  # adapter-bound, as the paper observes

    def test_backpressure_freezes_pipeline(self):
        harness = self.make(3)
        mats = make_matrices(3)
        outs, _ = harness.run_matrices(mats, ready_pattern=every(4))
        assert outs == [reference(m) for m in mats]

    def test_latency_zero_rejected(self):
        with pytest.raises(FrontendError):
            KernelSpec(style=KernelStyle.PIPELINED_MATRIX, latency=0)


class TestRowSerialWrapper:
    def make(self, latency=1):
        kernel, spec = make_row_serial_kernel(latency)
        top = build_axis_wrapper(kernel, spec)
        return StreamHarness(Simulator(top), spec)

    def test_functional(self):
        harness = self.make()
        mats = make_matrices(3)
        outs, _ = harness.run_matrices(mats)
        assert outs == [reference(m) for m in mats]

    def test_periodicity_8(self):
        harness = self.make()
        _outs, timing = harness.run_matrices(make_matrices(5))
        assert timing.periodicity == 8

    def test_backpressure(self):
        harness = self.make(latency=2)
        mats = make_matrices(2)
        outs, _ = harness.run_matrices(mats, ready_pattern=every(3))
        assert outs == [reference(m) for m in mats]

    def test_missing_ports_rejected(self):
        bad = Module("bad")
        bad.input("in_row", 96)
        out = bad.output("out_row", 72)
        bad.assign(out, ops.const(0, 72))
        spec = KernelSpec(style=KernelStyle.ROW_SERIAL)
        with pytest.raises(FrontendError):
            build_axis_wrapper(bad, spec)


@given(st.integers(2, 5), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([1, 3]))
@settings(max_examples=8, deadline=None)
def test_property_any_throttling_preserves_data(n_mats, valid_n, ready_n, lanes):
    kernel, spec = make_comb_kernel()
    top = build_axis_wrapper(kernel, spec)
    patterns = dict(valid_pattern=every(valid_n),
                    ready_pattern=every(ready_n, offset=1))
    mats = make_matrices(n_mats)
    if lanes == 1:
        outs, _ = StreamHarness(Simulator(top), spec).run_matrices(mats, **patterns)
    else:
        harness = StreamHarness(
            Simulator(top, engine="batch", lanes=lanes), spec)
        outs = harness.run_blocks(mats, **patterns)
        # Lockstep lanes see the same throttling as a one-lane run of
        # their chunk, so each lane's timing matches that run.
        size = -(-n_mats // lanes)
        assert len(harness.lane_timings) == -(-n_mats // size)
        for lane, timing in enumerate(harness.lane_timings):
            chunk = mats[lane * size:(lane + 1) * size]
            _, alone = StreamHarness(Simulator(top), spec).run_matrices(
                chunk, **patterns)
            assert timing.start_cycles == alone.start_cycles
            assert timing.finish_cycles == alone.finish_cycles
    assert outs == [reference(m) for m in mats]
