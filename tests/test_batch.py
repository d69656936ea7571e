"""Tests for the lane-packed batch simulator and the engine registry.

Covers the SWAR emitter op-by-op against the interpreter oracle, the
full design matrix (batch engine vs interp, every non-MaxJ frontend),
the one-lane ``Simulator(engine="batch")``, the engine
registry (resolution, suggestions, contexts, serialization), and the
``Session.verify`` cache-threading fix.
"""

import random

import pytest

from repro.api import (
    Session,
    UnknownEngineError,
    default_engine,
    design_names,
    engine_names,
    engines_payload,
    render_engines_json,
    resolve_engine,
)
from repro.axis import StreamHarness
from repro.core.errors import SimulationError, UsageError
from repro.eval.measure import (_CACHE, Measured, clear_measure_cache,
                                measure_design)
from repro.eval.verify import random_matrices
from repro.frontends.vlog import verilog_initial, verilog_opt
from repro.idct.reference import chen_wang_idct
from repro.rtl import Module, ops
from repro.sim import Simulator, compile_batch

WIDTH = 12
# Multiplier constants chosen to hit every MULS-by-const emitter branch:
# zero, +/-1 (multiply elided), positive/negative magnitudes, and the
# two's-complement extremes of the constant's width.
MUL_CONSTS = (0, 1, -1, 3, -7, 181, 2047, -2048)


def make_alu():
    """Combinational module exercising every vectorized op shape."""
    m = Module("alu")
    a = m.input("a", WIDTH)
    b = m.input("b", WIDTH)
    m.assign(m.output("o_add", WIDTH), ops.add(a, b))
    m.assign(m.output("o_sub", WIDTH), ops.sub(a, b))
    m.assign(m.output("o_and", WIDTH), ops.band(a, b))
    m.assign(m.output("o_xor", WIDTH), ops.bxor(a, b))
    m.assign(m.output("o_not", WIDTH), ops.bnot(a))
    m.assign(m.output("o_mux", WIDTH), ops.mux(ops.lt(a, b), a, b))
    m.assign(m.output("o_shr", WIDTH), ops.ashr(a, 2))
    m.assign(m.output("o_lt", 1), ops.lt(a, b))
    m.assign(m.output("o_eq", 1), ops.eq(a, b))
    for i, c in enumerate(MUL_CONSTS):
        e = ops.mul(a, c)               # MULS by constant (SWAR path)
        m.assign(m.output(f"o_mul{i}", e.width), e)
    e = ops.mul(a, b)                   # MULS var*var (per-lane fallback)
    m.assign(m.output("o_mulv", e.width), e)
    return m


def make_accumulator(width=16):
    m = Module("acc")
    data = m.input("data", width)
    total = m.output("total", width)
    acc = m.reg("acc", width)
    m.set_next(acc, ops.add(acc, data))
    m.assign(total, ops.ref(acc))
    return m


def _lane_inputs(rng, lanes):
    return [rng.randrange(1 << WIDTH) for _ in range(lanes)]


# ---------------------------------------------------------------------------
# SWAR emitter vs the interpreter oracle
# ---------------------------------------------------------------------------
class TestSwarOps:
    def test_every_op_matches_interp_lanewise(self):
        module = make_alu()
        lanes = 8
        batch = Simulator(module, engine="batch", lanes=lanes)
        oracle = Simulator(make_alu(), engine="interp")
        outputs = [s.name for s in batch.netlist.outputs]
        assert outputs, "ALU module elaborated with no outputs"
        rng = random.Random(20230317)
        for _ in range(16):
            a_vals = _lane_inputs(rng, lanes)
            b_vals = _lane_inputs(rng, lanes)
            batch.poke_lanes("a", a_vals)
            batch.poke_lanes("b", b_vals)
            for name in outputs:
                got = batch.peek_lanes(name)
                for lane in range(lanes):
                    oracle.poke("a", a_vals[lane])
                    oracle.poke("b", b_vals[lane])
                    assert got[lane] == oracle.peek(name).uint, (
                        f"{name} lane {lane}: a={a_vals[lane]} "
                        f"b={b_vals[lane]}")

    def test_muls_const_input_extremes(self):
        """The sign-split product formula at the input corner cases."""
        module = make_alu()
        lanes = 4
        batch = Simulator(module, engine="batch", lanes=lanes)
        oracle = Simulator(make_alu(), engine="interp")
        extremes = [0, 1, (1 << (WIDTH - 1)) - 1,   # 0, 1, +max
                    1 << (WIDTH - 1),               # -min
                    (1 << WIDTH) - 1]               # -1
        outputs = [s.name for s in batch.netlist.outputs
                   if s.name.startswith("o_mul")]
        for at in range(0, len(extremes), lanes):
            chunk = (extremes[at:at + lanes] * lanes)[:lanes]
            batch.poke_lanes("a", chunk)
            batch.poke_lanes("b", chunk)
            for name in outputs:
                got = batch.peek_lanes(name)
                for lane, value in enumerate(chunk):
                    oracle.poke("a", value)
                    oracle.poke("b", value)
                    assert got[lane] == oracle.peek(name).uint, (
                        f"{name}: a={value}")

    def test_sequential_lanes_tick_independently(self):
        lanes = 4
        batch = Simulator(make_accumulator(), engine="batch", lanes=lanes)
        streams = [[(lane + 1) * step for step in range(1, 6)]
                   for lane in range(lanes)]
        for step in range(5):
            batch.poke_lanes("data", [streams[l][step] for l in range(lanes)])
            batch.step()
        totals = batch.peek_lanes("total")
        assert totals == [sum(streams[l]) for l in range(lanes)]
        assert batch.cycles == 5

    def test_compiled_source_introspection(self):
        from repro.rtl import elaborate

        compiled = compile_batch(elaborate(make_alu()), lanes=4)
        assert compiled.lanes == 4
        assert "def settle" in compiled.source
        sim = Simulator(make_alu(), engine="batch", lanes=4)
        assert "def settle" in sim.compiled_source
        one_lane = Simulator(make_accumulator(), engine="batch")
        assert "def settle" in one_lane.compiled_source


# ---------------------------------------------------------------------------
# the wide-bus split: values wider than the lane field become field signals
# ---------------------------------------------------------------------------
BUS_INIT = 0x89ABCDEF


def make_wide_bus():
    """A module whose internal bus is 4x its widest port and arithmetic node.

    Every port and operator is 8 bits wide, so the lane field is 8 bits;
    the 32-bit register ``bus`` and wire ``mixed`` only move bits (a mux,
    concatenations, slices), and ``y`` adds a slice that straddles two of
    ``bus``'s fields.
    """
    m = Module("wide")
    a = m.input("a", 8)
    b = m.input("b", 8)
    sel = m.input("sel", 1)
    bus = m.reg("bus", 32, init=BUS_INIT)
    mixed = m.connect("mixed", 32, ops.mux(
        sel, ops.cat(a, b, ops.bxor(a, b), ops.bnot(b)), bus))
    m.set_next(bus, ops.cat(ops.bits(mixed, 23, 0), a), en=ops.redor(a))
    m.assign(m.output("y", 8), ops.add(ops.bits(bus, 11, 4), b))
    m.assign(m.output("z", 8), ops.bits(mixed, 27, 20))
    return m


class TestWideSplit:
    def test_wide_values_become_lane_fields(self):
        from repro.rtl import elaborate

        netlist = elaborate(make_wide_bus())
        compiled = compile_batch(netlist, lanes=4)
        assert compiled.stride == 9   # the 8-bit lane field + a guard bit
        by_name = {sig.name: parts for sig, parts in compiled.fields.items()}
        assert sorted(by_name) == ["bus", "mixed"]
        assert [f.name for f in by_name["bus"]] == [
            "bus[7:0]", "bus[15:8]", "bus[23:16]", "bus[31:24]"]
        # The split builds a new netlist: the input one (which synthesis
        # reads) still has the 32-bit register.
        assert [r.signal.width for r in netlist.registers] == [32]
        assert [r.signal.width for r in compiled.netlist.registers] == [8] * 4

    def test_peeks_reassemble_split_signals(self):
        lanes = 4
        batch = Simulator(make_wide_bus(), engine="batch", lanes=lanes)
        oracles = [Simulator(make_wide_bus(), engine="interp")
                   for _ in range(lanes)]
        one_lane = Simulator(make_wide_bus(), engine="batch")
        names = ("bus", "mixed", "y", "z")
        assert batch.peek_lanes("bus") == [BUS_INIT] * lanes
        rng = random.Random(7)
        for _cycle in range(12):
            stimulus = [{"a": rng.randrange(256), "b": rng.randrange(256),
                         "sel": rng.randrange(2)} for _ in range(lanes)]
            for name in ("a", "b", "sel"):
                batch.poke_lanes(name, [s[name] for s in stimulus])
            for sim, s in zip(oracles + [one_lane], stimulus + stimulus[:1]):
                for name, value in s.items():
                    sim.poke(name, value)
            for name in names:
                want = [sim.peek_int(name) for sim in oracles]
                assert batch.peek_lanes(name) == want, name
                assert batch.peek_lane(name, 2) == want[2], name
                assert one_lane.peek_int(name) == want[0], name
            for sim in [batch, one_lane] + oracles:
                sim.step()
        one_lane.poke_register("bus", 0x01234567)
        assert one_lane.peek_int("bus") == 0x01234567
        one_lane.reset()
        batch.reset()
        assert one_lane.peek_int("bus") == BUS_INIT
        assert batch.peek_lanes("bus") == [BUS_INIT] * lanes
        for sim in (batch, one_lane):
            with pytest.raises(SimulationError, match="split into fields"):
                sim.slot("bus")

    def test_vcd_of_a_split_signal_matches_interp(self):
        from repro.sim import VcdTracer

        dumps = []
        for engine in ("interp", "batch"):
            sim = Simulator(make_wide_bus(), engine=engine)
            tracer = VcdTracer(sim, signals=["bus", "mixed", "y"])
            for cycle in range(6):
                sim.poke("a", 17 * cycle + 3)
                sim.poke("b", 255 - cycle)
                sim.poke("sel", cycle % 2)
                sim.step()
            dumps.append(tracer.render())
        assert dumps[0] == dumps[1]
        assert "bus" in dumps[0]

    def test_xls_768_bit_bus_peeks_like_the_scalar_engine(self):
        from repro.rtl import elaborate

        design = Session().build("xls-s8")
        netlist = elaborate(design.top)
        block = [list(row) for row in random_matrices(1, seed=5)[0]]
        fields = compile_batch(netlist, lanes=1).fields
        assert {sig.name: sig.width for sig in fields} == {
            "in_mat": 768, "out_mat": 576, "out_buf": 576,
            "kernel.oreg_out_mat": 576}
        batch = Simulator(netlist, engine="batch", lanes=2)
        scalar = Simulator(netlist)
        for sim in (batch, scalar):
            StreamHarness(sim, design.spec).run_blocks([block])
        want = scalar.peek_int("in_mat")
        assert want != 0
        assert batch.peek_lane("in_mat", 0) == want
        assert batch.stride <= 97


# ---------------------------------------------------------------------------
# compile spans: perfbench reads its per-layer compile metrics by these names
# ---------------------------------------------------------------------------
class TestCompileSpans:
    @pytest.fixture
    def traced(self):
        from repro import obs

        obs.disable()
        obs.clear()
        obs.enable()
        yield obs
        obs.disable()
        obs.clear()

    @staticmethod
    def spans(obs, name):
        return [r for r in obs.trace.events() if r.name == name]

    def test_one_span_per_compilation_named_by_lowering(self, traced):
        from repro.rtl import elaborate

        netlist = elaborate(make_accumulator())
        design = verilog_opt()
        top = elaborate(design.top)
        traced.clear()

        Simulator(netlist, engine="compiled")
        Simulator(netlist, engine="interp")
        scalar = self.spans(traced, "sim.compile")
        assert len(scalar) == 1
        assert self.spans(traced, "sim.batch.compile") == []

        compile_batch(netlist, lanes=3)
        StreamHarness(Simulator(top, engine="batch", lanes=2), design.spec)
        Simulator(netlist, engine="batch")
        packed = self.spans(traced, "sim.batch.compile")
        assert [span.attrs["lanes"] for span in packed] == [3, 2, 1]
        assert len(self.spans(traced, "sim.compile")) == 1

        for span in scalar + packed:
            assert span.attrs["source_lines"] > 0
        counters = traced.metrics.snapshot()["counters"]
        assert counters["sim.compile.netlists"] == 1
        assert counters["sim.batch.netlists"] == 3

    def test_spans_count_merged_nodes_and_enable_groups(self, traced):
        from repro.rtl import elaborate

        m = Module("twice")
        a, b, c = (m.input(n, 16) for n in "abc")
        en = m.input("en", 1)
        for i in range(2):  # the same structure, built twice
            m.assign(m.output(f"o{i}", 16),
                     ops.add(ops.bits(ops.mul(a, b), 15, 0), c))
        r = m.reg("r", 16)
        m.set_next(r, ops.add(r, a), en=en)
        netlist = elaborate(m)
        traced.clear()
        compile_batch(netlist, lanes=2)
        Simulator(netlist, engine="compiled")
        spans = (self.spans(traced, "sim.batch.compile")
                 + self.spans(traced, "sim.compile"))
        assert [span.attrs["enable_groups"] for span in spans] == [1, 1]
        assert all(span.attrs["cse_merged"] >= 3 for span in spans)

    def test_packed_span_counts_guarded_partitions(self, traced):
        from repro.eval.measure import design_netlist

        netlist = design_netlist(Session().build("xls-s8"))
        traced.clear()
        compiled = compile_batch(netlist, lanes=16)
        Simulator(netlist, engine="compiled")
        [packed] = self.spans(traced, "sim.batch.compile")
        [scalar] = self.spans(traced, "sim.compile")
        # The served xls-s8 pipeline: one guard per partition in the
        # packed tick; the scalar tick is straight-line.
        assert packed.attrs["partitions"] == 271
        assert compiled.source.count("if k != g") == 271
        assert scalar.attrs["partitions"] == 0


# ---------------------------------------------------------------------------
# full design matrix: batch engine vs the interp oracle, every frontend
# ---------------------------------------------------------------------------
def _sim_designs():
    """Every design the sim engines apply to (MaxJ takes the PCIe
    system path in measurement, not the AXI-Stream harness)."""
    return [n for n in design_names() if not n.startswith("maxj-")]


class TestDesignMatrix:
    @pytest.mark.parametrize("name", _sim_designs())
    def test_batch_matches_interp(self, name):
        design = Session().build(name)
        matrices = random_matrices(2, seed=11)
        oracle = StreamHarness(
            Simulator(design.top, engine="interp"), design.spec)
        want, _timing = oracle.run_matrices(matrices, timeout=50_000)
        runner = StreamHarness(
            Simulator(design.top, engine="batch", lanes=4), design.spec)
        got = runner.run_blocks([[list(r) for r in m] for m in matrices],
                                timeout=50_000)
        assert got == want
        # and both agree with the golden model, not just each other
        assert got == [chen_wang_idct(m) for m in matrices]


# Block 761 of the IEEE 1180 [-300, 300] condition (Ieee1180Generator(1),
# sign +1) and its negation (the sign -1 condition's block 761).  The C
# designs compute in 32-bit C int, which the column pass overflows here:
# one output wraps by 511 where the golden model clips (ROADMAP item 7).
L300_BLOCK = [
    [-227, 274, 109, -262, 7, -12, 70, 23],
    [-206, -300, -97, -283, -285, 61, 213, -203],
    [248, 2, 207, -254, 43, -100, -5, 217],
    [272, -168, 163, -296, 81, 300, -276, 239],
    [-276, -190, -129, 131, 21, 281, 209, 199],
    [299, 272, 291, -271, 279, 200, -232, 167],
    [259, 142, -253, 1, 247, -15, -136, 48],
    [207, -70, 290, 195, 269, 297, 161, 193],
]
L300_MATRICES = [L300_BLOCK, [[-v for v in row] for row in L300_BLOCK]]
_C_DESIGNS = ("bambu-initial", "bambu-opt",
              "vivado-hls-initial", "vivado-hls-opt")


def test_l300_matrices_are_ieee1180_blocks():
    from repro.idct.ieee1180 import Ieee1180Generator

    for sign, matrix in zip((1, -1), L300_MATRICES):
        gen = Ieee1180Generator(1)
        blocks = [gen.block(300, 300, sign) for _ in range(762)]
        assert blocks[761] == matrix


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        name in _C_DESIGNS, strict=True,
        reason="ROADMAP item 7: 32-bit C int wraps at L=300"))
    for name in _sim_designs()])
def test_l300_matrices_match_the_golden_model(name):
    design = Session().build(name)
    harness = StreamHarness(
        Simulator(design.top, engine="batch", lanes=2), design.spec)
    got = harness.run_blocks(L300_MATRICES)
    assert got == [chen_wang_idct(m) for m in L300_MATRICES]


def test_streamed_designs_pack_at_stride_97_or_less():
    """Only arithmetic sets the lane field; wide buses are split."""
    from repro.rtl import elaborate

    strides = {name: compile_batch(elaborate(Session().build(name).top),
                                   lanes=1).stride
               for name in _sim_designs()}
    assert len(strides) == 12
    assert max(strides.values()) <= 97, strides


class TestStreamRunner:
    def test_uneven_block_counts_and_lane_shapes(self):
        design = verilog_opt()
        for n_blocks, lanes in ((5, 8), (10, 4)):
            blocks = [[list(r) for r in m]
                      for m in random_matrices(n_blocks, seed=n_blocks)]
            runner = StreamHarness(
                Simulator(design.top, engine="batch", lanes=lanes),
                design.spec)
            got = runner.run_blocks(blocks)
            assert got == [chen_wang_idct(b) for b in blocks]

    def test_simulator_batch_engine_matches_compiled_with_timing(self):
        design = verilog_initial()
        matrices = random_matrices(3, seed=9)
        results = []
        for engine in ("compiled", "batch"):
            harness = StreamHarness(
                Simulator(design.top, engine=engine), design.spec)
            outs, timing = harness.run_matrices(matrices)
            results.append((outs, timing.latency, timing.periodicity,
                            timing.total_cycles))
        assert results[0] == results[1]

    def test_simulator_rejects_unknown_engine(self):
        with pytest.raises(SimulationError):
            Simulator(make_accumulator(), engine="vector")


# ---------------------------------------------------------------------------
# engine registry
# ---------------------------------------------------------------------------
class TestEngineRegistry:
    def test_resolution_and_defaults(self):
        assert resolve_engine("batch") == "batch"
        assert resolve_engine("batch", "sim") == "batch"
        assert resolve_engine("batch", "serve") == "batch"
        assert default_engine("sim") == "compiled"
        assert default_engine("serve") == "model"
        assert engine_names("sim") == ("interp", "compiled", "batch")
        assert engine_names("serve") == ("batch", "model", "sim")

    def test_unknown_engine_suggests_near_miss(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            resolve_engine("compield")
        assert "did you mean" in str(excinfo.value)
        assert "compiled" in excinfo.value.suggestions
        # the error satisfies both historical contracts
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, UsageError)

    def test_engine_outside_context_is_rejected(self):
        with pytest.raises(UnknownEngineError, match="not available"):
            resolve_engine("model", "sim")
        with pytest.raises(UnknownEngineError, match="not available"):
            resolve_engine("interp", "serve")

    def test_json_rendering_is_canonical(self):
        import json

        text = render_engines_json()
        assert text.endswith("\n")
        assert json.loads(text) == engines_payload()
        names = [spec["name"] for spec in json.loads(text)["engines"]]
        assert names == list(engine_names())

    def test_cli_engines_json_is_the_one_serialization(self, capsys):
        from repro.cli import main

        assert main(["engines", "--json"]) == 0
        assert capsys.readouterr().out == render_engines_json()

    def test_cli_engines_text_lists_every_engine(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in engine_names():
            assert name in out

    def test_cli_rejects_unknown_engine_with_exit_2(self, capsys):
        # argparse `choices` (fed from the registry) rejects it up front
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "verilog-initial", "--engine", "hopeful"])
        assert excinfo.value.code == 2
        assert "hopeful" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["table2", "--engine", "batch"],
                                      ["fig1", "--engine", "batch"],
                                      ["chaos", "batch-engine"]],
                             ids=["table2", "fig1", "chaos"])
    def test_sweeps_have_no_engine_choice(self, argv, capsys):
        # Sweeps measure on the default engine; choosing one is verify's.
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[-1] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cache threading through Session.verify and the measure memo
# ---------------------------------------------------------------------------
class TestVerifyCaching:
    def test_verify_defaults_to_session_cache(self, tmp_path):
        session = Session(cache=tmp_path / "cache")
        clear_measure_cache()
        cold = session.verify("verilog-initial")
        assert session.cache.stats["puts"] > 0
        clear_measure_cache()  # force the disk path, not the memo
        warm = session.verify("verilog-initial")
        assert warm == cold
        assert session.cache.stats["hits"] > 0

    def test_verify_use_cache_false_forces_fresh(self, tmp_path):
        from repro import obs
        from repro.obs import metrics as obs_metrics

        session = Session(cache=tmp_path / "cache")
        clear_measure_cache()
        session.verify("verilog-initial")
        clear_measure_cache()
        obs.enable()
        obs.clear()
        try:
            fresh = session.verify("verilog-initial", use_cache=False)
            # a full measurement ran — neither the memo nor the disk
            # "measured" artifact short-circuited it
            assert obs_metrics.counter("measure.designs").value == 1
        finally:
            obs.disable()
            obs.clear()
        assert ("verilog-initial", "initial", 4) not in _CACHE
        assert fresh.bit_exact

    @pytest.mark.parametrize("engine", ["batch", "interp"])
    def test_only_compiled_measurements_are_cached(self, tmp_path, engine):
        from repro import obs
        from repro.cache import ArtifactCache, activate, artifact_key
        from repro.obs import metrics as obs_metrics

        design = verilog_initial()
        cache = ArtifactCache(tmp_path / "cache")
        clear_measure_cache()
        obs.enable()
        obs.clear()
        try:
            with activate(cache):
                compiled = measure_design(design, n_matrices=2)
                # neither the memo nor the disk "measured" artifact may
                # answer another engine: it simulates every time
                for _ in range(2):
                    other = measure_design(design, n_matrices=2,
                                           engine=engine)
                assert other == compiled
                assert obs_metrics.counter("measure.designs").value == 3
                assert obs_metrics.counter("measure.cache_hits").value == 0
        finally:
            obs.disable()
            obs.clear()
        assert list(_CACHE) == [(design.name, design.config, 2)]
        assert _CACHE[(design.name, design.config, 2)] == compiled
        stored = [path for path in (tmp_path / "cache" / "measured").rglob("*")
                  if path.is_file()]
        assert len(stored) == 1
        key = artifact_key("measured", design.name, design.config,
                           n_matrices=2)
        assert Measured.from_dict(cache.get_json("measured", key)) == compiled
        clear_measure_cache()
