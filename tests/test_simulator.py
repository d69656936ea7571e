"""Tests for the cycle-accurate simulator (both engines)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bits import BV
from repro.core.errors import SimulationError
from repro.rtl import Module, elaborate, ops
from repro.rtl.ir import MemRead, Ref
from repro.sim import Simulator, VcdTracer


def make_counter(width=8):
    m = Module("counter")
    en = m.input("en", 1)
    out = m.output("out", width)
    count = m.reg("count", width)
    m.set_next(count, ops.add(count, 1), en=Ref(en))
    m.assign(out, Ref(count))
    return m


def make_accumulator(width=16):
    m = Module("acc")
    data = m.input("data", width)
    clear = m.input("clear", 1)
    total = m.output("total", width)
    acc = m.reg("acc", width)
    m.set_next(acc, ops.mux(Ref(clear), ops.const(0, width), ops.add(acc, data)))
    m.assign(total, Ref(acc))
    return m


class TestCombinational:
    def test_adder_settles_after_poke(self):
        m = Module("adder")
        a = m.input("a", 8)
        b = m.input("b", 8)
        y = m.output("y", 8)
        m.assign(y, ops.add(a, b))
        sim = Simulator(m)
        sim.poke(a, 3)
        sim.poke(b, 4)
        assert sim.peek(y) == BV(7, 8)

    def test_peek_returns_bv_with_signal_width(self):
        m = Module("m")
        a = m.input("a", 12)
        y = m.output("y", 12)
        m.assign(y, ops.add(a, 1))
        sim = Simulator(m)
        sim.poke(a, 0xFFF)
        assert sim.peek(y).width == 12
        assert sim.peek(y).uint == 0

    def test_peek_by_name(self):
        sim = Simulator(make_counter())
        assert sim.peek("out").uint == 0

    def test_poke_unknown_name_rejected(self):
        sim = Simulator(make_counter())
        with pytest.raises(SimulationError):
            sim.poke("nonexistent", 1)

    def test_poke_non_input_rejected(self):
        m = make_counter()
        sim = Simulator(m)
        with pytest.raises(SimulationError):
            sim.poke("out", 5)

    def test_poke_bv_width_checked(self):
        m = make_counter()
        sim = Simulator(m)
        with pytest.raises(SimulationError):
            sim.poke("en", BV(0, 2))


class TestSequential:
    def test_counter_counts_when_enabled(self):
        sim = Simulator(make_counter())
        sim.poke("en", 1)
        sim.step(5)
        assert sim.peek("out").uint == 5

    def test_counter_holds_when_disabled(self):
        sim = Simulator(make_counter())
        sim.poke("en", 1)
        sim.step(3)
        sim.poke("en", 0)
        sim.step(10)
        assert sim.peek("out").uint == 3

    def test_reset_restores_init(self):
        sim = Simulator(make_counter())
        sim.poke("en", 1)
        sim.step(7)
        sim.reset()
        assert sim.peek("out").uint == 0
        assert sim.cycles == 0

    def test_accumulator(self):
        sim = Simulator(make_accumulator())
        sim.poke("clear", 0)
        for value in (5, 10, 15):
            sim.poke("data", value)
            sim.step()
        assert sim.peek("total").uint == 30
        sim.poke("clear", 1)
        sim.step()
        assert sim.peek("total").uint == 0

    def test_register_samples_pre_edge_value(self):
        # Two chained registers: a one-cycle delay each, no fall-through.
        m = Module("chain")
        d = m.input("d", 8)
        q = m.output("q", 8)
        r1 = m.reg("r1", 8, next=Ref(d))
        r2 = m.reg("r2", 8, next=Ref(r1))
        m.assign(q, Ref(r2))
        sim = Simulator(m)
        sim.poke(d, 42)
        sim.step()
        assert sim.peek(q).uint == 0
        sim.step()
        assert sim.peek(q).uint == 42

    def test_run_until(self):
        sim = Simulator(make_counter())
        sim.poke("en", 1)
        used = sim.run_until(lambda s: s.peek("out").uint == 9)
        assert used == 9

    def test_run_until_timeout(self):
        sim = Simulator(make_counter())
        sim.poke("en", 0)
        with pytest.raises(SimulationError):
            sim.run_until(lambda s: s.peek("out").uint == 1, timeout=20)


class TestMemory:
    def make_ram(self):
        m = Module("ram")
        we = m.input("we", 1)
        waddr = m.input("waddr", 3)
        wdata = m.input("wdata", 8)
        raddr = m.input("raddr", 3)
        rdata = m.output("rdata", 8)
        mem = m.memory("mem", 8, 8)
        m.mem_write(mem, Ref(we), Ref(waddr), Ref(wdata))
        m.assign(rdata, MemRead(mem, Ref(raddr)))
        return m, mem

    def test_write_then_read(self):
        m, _mem = self.make_ram()
        sim = Simulator(m)
        sim.poke("we", 1)
        sim.poke("waddr", 3)
        sim.poke("wdata", 0xAB)
        sim.step()
        sim.poke("we", 0)
        sim.poke("raddr", 3)
        assert sim.peek("rdata").uint == 0xAB

    def test_async_read_sees_pre_edge_data(self):
        m, _mem = self.make_ram()
        sim = Simulator(m)
        sim.poke("we", 1)
        sim.poke("waddr", 0)
        sim.poke("wdata", 1)
        sim.poke("raddr", 0)
        # Before the edge the memory still holds 0.
        assert sim.peek("rdata").uint == 0
        sim.step()
        assert sim.peek("rdata").uint == 1

    def test_memory_init_and_backdoor(self):
        m = Module("rom")
        addr = m.input("addr", 3)
        data = m.output("data", 8)
        mem = m.memory("rom", 8, 8, init=[i * 3 for i in range(8)])
        m.assign(data, MemRead(mem, Ref(addr)))
        sim = Simulator(m)
        sim.poke("addr", 5)
        assert sim.peek("data").uint == 15
        assert sim.read_memory(sim.netlist.memories[0]) == [i * 3 for i in range(8)]
        sim.write_memory(sim.netlist.memories[0], [7] * 8)
        assert sim.peek("data").uint == 7

    def test_backdoor_length_checked(self):
        m, _ = self.make_ram()
        sim = Simulator(m)
        with pytest.raises(SimulationError):
            sim.write_memory(sim.netlist.memories[0], [0] * 4)


def make_ram_acc():
    """A RAM whose read port feeds an accumulator register."""
    m = Module("ram_acc")
    we = m.input("we", 1)
    waddr = m.input("waddr", 3)
    wdata = m.input("wdata", 8)
    raddr = m.input("raddr", 3)
    mem = m.memory("mem", 8, 8, init=[i * 3 for i in range(8)])
    m.mem_write(mem, Ref(we), Ref(waddr), Ref(wdata))
    rdata = MemRead(mem, Ref(raddr))
    acc = m.reg("acc", 8)
    m.set_next(acc, ops.add(acc, rdata))
    m.assign(m.output("rdata", 8), rdata)
    m.assign(m.output("total", 8), Ref(acc))
    return m


class TestLanes:
    """One class, any lane count; more than one lane needs ``batch``."""

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_scalar_engines_refuse_lanes(self, engine):
        with pytest.raises(SimulationError, match="needs engine 'batch'"):
            Simulator(make_counter(), engine=engine, lanes=2)

    @pytest.mark.parametrize("engine", ["compiled", "interp", "batch"])
    def test_zero_lanes_rejected(self, engine):
        with pytest.raises(SimulationError, match="lanes >= 1"):
            Simulator(make_counter(), engine=engine, lanes=0)

    def test_broadcast_writes_reach_every_lane(self):
        """poke, poke_register and write_memory drive all lanes alike."""
        lanes = 3
        batch = Simulator(make_ram_acc(), engine="batch", lanes=lanes)
        oracles = [Simulator(make_ram_acc(), engine="interp")
                   for _ in range(lanes)]
        sims = [batch] + oracles
        mem = batch.netlist.memories[0]

        def check():
            for name in ("rdata", "total"):
                assert batch.peek_lanes(name) == [
                    oracle.peek_int(name) for oracle in oracles], name
            assert batch.read_memory(mem) == oracles[0].read_memory(
                oracles[0].netlist.memories[0])

        # Per-lane writes first, so the lanes' memories and registers differ.
        for cycle in range(4):
            values = [(lane + 1) * 10 + cycle for lane in range(lanes)]
            batch.poke_lanes("wdata", values)
            for oracle, value in zip(oracles, values):
                oracle.poke("wdata", value)
            for sim in sims:
                sim.poke("we", 1)
                sim.poke("waddr", cycle)
                # Read what the previous cycle wrote.
                sim.poke("raddr", (cycle - 1) % 8)
            check()
            for sim in sims:
                sim.step()
        assert len(set(batch.peek_lanes("total"))) == lanes

        for sim in sims:
            sim.write_memory(sim.netlist.memories[0], [7 * i for i in range(8)])
            sim.poke_register("acc", 0x40)
            sim.poke("we", 0)
            sim.poke("raddr", 5)
        check()
        assert batch.peek_lanes("total") == [0x40] * lanes
        assert batch.peek_lanes("rdata") == [35] * lanes
        for _ in range(3):
            for sim in sims:
                sim.step()
            check()
        assert batch.peek_lanes("total") == [(0x40 + 3 * 35) & 0xFF] * lanes


class TestSettling:
    """One clock contract: settle at the first read after a change."""

    CYCLES = 12

    def test_every_engine_and_lane_count_settles_alike(self):
        netlist = elaborate(make_ram_acc())
        sims = {
            "interp": Simulator(netlist, engine="interp"),
            "compiled": Simulator(netlist, engine="compiled"),
            "batch/1": Simulator(netlist, engine="batch", lanes=1),
            "batch/3": Simulator(netlist, engine="batch", lanes=3),
        }

        def check_reads():
            seen = {}
            for label, sim in sims.items():
                lanes = {name: sim.peek_lanes(name)
                         for name in ("rdata", "total")}
                assert all(len(set(v)) == 1 for v in lanes.values()), label
                seen[label] = {name: v[0] for name, v in lanes.items()}
            assert len({tuple(v.items()) for v in seen.values()}) == 1, seen

        for cycle in range(self.CYCLES):
            for sim in sims.values():
                sim.poke("we", cycle % 3 != 2)
                sim.poke("waddr", cycle)
                sim.poke("wdata", 17 * cycle + 5)
                sim.poke("raddr", (cycle - 1) % 8)
            check_reads()
            for sim in sims.values():
                sim.step()
        # The edge alone settles nothing; the first read after it does.
        assert {sim.settles for sim in sims.values()} == {self.CYCLES}
        check_reads()
        assert {sim.settles for sim in sims.values()} == {self.CYCLES + 1}


class TestEngines:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(make_counter(), engine="magic")

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 255)),
                    min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_compiled_matches_interpreter(self, stimulus):
        m = Module("dut")
        en = m.input("en", 1)
        data = m.input("data", 8)
        out = m.output("out", 16)
        acc = m.reg("acc", 16)
        scaled = m.connect("scaled", 16, ops.resize(ops.mul(data, 3), 16, signed=False))
        m.set_next(acc, ops.add(acc, scaled), en=Ref(en))
        m.assign(out, ops.bxor(acc, 0x5A5A))
        netlist = elaborate(m)
        fast = Simulator(netlist, engine="compiled")
        slow = Simulator(netlist, engine="interp")
        for en_val, data_val in stimulus:
            for sim in (fast, slow):
                sim.poke("en", en_val)
                sim.poke("data", data_val)
                sim.step()
            assert fast.peek("out") == slow.peek("out")

    def test_shared_subexpression_dag_is_correct(self):
        # One expression object used by many assigns: CSE must not change
        # semantics.
        m = Module("dag")
        a = m.input("a", 8)
        shared = ops.mul(a, a)  # reused node
        outs = []
        for i in range(4):
            y = m.output(f"y{i}", 16)
            m.assign(y, ops.resize(ops.add(shared, i), 16, signed=False))
            outs.append(y)
        sim = Simulator(m)
        sim.poke(a, 9)
        for i, y in enumerate(outs):
            assert sim.peek(y).uint == 81 + i

    def test_compiled_source_is_inspectable(self):
        sim = Simulator(make_counter())
        assert "def settle" in sim.compiled_source
        assert "def tick" in sim.compiled_source


class TestVcd:
    def test_vcd_contains_declared_signals_and_changes(self):
        m = make_counter()
        sim = Simulator(m)
        tracer = VcdTracer(sim)
        sim.poke("en", 1)
        sim.step(3)
        text = tracer.render()
        assert "$var wire 8" in text
        assert "$var wire 1" in text
        assert "#3" in text

    def test_vcd_save(self, tmp_path):
        sim = Simulator(make_counter())
        tracer = VcdTracer(sim, signals=["out"])
        sim.poke("en", 1)
        sim.step(2)
        path = tmp_path / "wave.vcd"
        tracer.save(str(path))
        assert path.read_text().startswith("$date")

    def test_vcd_records_only_changes(self):
        sim = Simulator(make_counter())
        tracer = VcdTracer(sim, signals=["out"])
        sim.poke("en", 0)
        sim.step(5)  # counter disabled: no changes
        changes = [c for _t, c in tracer.history if c]
        assert len(changes) <= 1  # only the initial dump
