"""Tests for the simulator compiler's structural CSE and gated tick.

The reference interpreter is the oracle: random netlists whose registers
and memory write ports have shared, distinct, structurally equal and
absent enables must step identically on ``interp``, ``compiled``, one
packed lane and three packed lanes.  Deterministic checks pin down the
shape of the emitted code: one multiply for two equal trees, one ``if``
per distinct enable, and shared nodes before the first ``if``.

The packed tick skips a partition whose inputs did not change, so its
tests hold inputs still and change them one at a time: a guard that
misses one input shows only when that input alone changes.
"""

import random
import re

import pytest

from repro.rtl.elaborate import FlatRegister, Netlist
from repro.rtl.ir import (BinOp, BinOpKind as K, Cat, Const, Ext, MemRead,
                          Mux, Ref, Signal, Slice, UnOp, UnOpKind,
                          with_children, expr_children)
from repro.rtl.module import Memory, MemWrite
from repro.sim import Simulator, compile_batch
from repro.sim.compile import compile_netlist

W = 8


def copy(expr):
    """A structurally equal tree of fresh node objects."""
    if isinstance(expr, Const):
        return Const(expr.value, expr.width)
    if isinstance(expr, Ref):
        return Ref(expr.signal)
    return with_children(expr, [copy(kid) for kid in expr_children(expr)])


class RandomNetlist:
    """A random netlist over 8-bit inputs, registers and one memory."""

    def __init__(self, seed: int):
        rng = self.rng = random.Random(seed)
        self.data = [Signal(f"d{i}", W) for i in range(2)]
        self.en = [Signal(f"en{i}", 1) for i in range(3)]
        self.regs = [Signal(f"r{i}", W) for i in range(6)]
        self.mem = Memory("mem", 4, W, init=[rng.randrange(256) for _ in range(4)])
        self.leaves = [Ref(s) for s in self.data + self.regs]

        # ``inner`` is read by group 0 directly and through ``shared``,
        # which groups 0 and 1 both read.
        inner = BinOp(K.ADD, self.tree(1), self.tree(1))
        shared = BinOp(K.XOR, inner, self.tree(2))
        twin = self.tree(3)
        en_shared = Ref(self.en[0])
        en_equal = BinOp(K.XOR, Ref(self.en[1]), Ref(self.en[2]))
        en_reg = Slice(Ref(self.regs[5]), 0, 0)  # a register's own bit
        enables = [en_shared, en_shared, en_equal, copy(en_equal), None, en_reg]
        registers = []
        for i, (sig, en) in enumerate(zip(self.regs, enables)):
            nxt = self.tree(3)
            if i == 0:
                nxt = BinOp(K.ADD, BinOp(K.ADD, inner, nxt), shared)
            if i == 3:
                nxt = BinOp(K.ADD, nxt, shared)
            if i in (1, 2):  # structurally equal, distinct objects
                nxt = BinOp(K.XOR, nxt, copy(twin))
            if i in (1, 5):  # one select under two groups
                nxt = Mux(Ref(self.en[2]), nxt, Ref(sig))
            registers.append(FlatRegister(sig, nxt, rng.randrange(256), en))
        addr = Slice(Ref(self.data[0]), 1, 0)
        self.mem.writes = [
            MemWrite(Ref(self.en[0]), addr, self.tree(2)),
            MemWrite(en_reg, copy(addr), self.tree(2)),  # same address
        ]
        d = Ref(self.data[1])
        # Nodes that differ in one attribute only must not be merged.
        rom = Memory("rom", 4, W, init=[rng.randrange(256) for _ in range(4)])
        near = [Slice(d, 7, 4), Slice(d, 7, 5), Slice(d, 6, 4),
                Ext(Slice(d, 3, 0), 6, True), Ext(Slice(d, 3, 0), 6, False),
                Ext(Slice(d, 3, 0), 7, True),
                Cat((Const(1, 2), Const(3, 4))), Cat((Const(1, 2), Const(3, 3))),
                BinOp(K.SUB, d, Ref(self.data[0])),
                BinOp(K.ADD, d, Ref(self.data[0])), UnOp(UnOpKind.NOT, d),
                UnOp(UnOpKind.NEG, d), MemRead(self.mem, Const(1, 2)),
                MemRead(rom, Const(1, 2))]
        outputs = [Signal(f"q{i}", W) for i in range(4 + len(near))]
        assigns = [(q, MemRead(self.mem, Const(a, 2)))
                   for a, q in enumerate(outputs[:4])]
        assigns += [(q, node if node.width == W else Ext(node, W, False))
                    for q, node in zip(outputs[4:], near)]
        self.netlist = Netlist(f"random{seed}", self.data + self.en, outputs,
                               assigns, registers, [self.mem, rom])
        self.watch = self.regs + outputs

    def tree(self, depth: int):
        rng = self.rng
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.2:
                return Const(rng.randrange(256), W)
            return rng.choice(self.leaves)
        a, b = self.tree(depth - 1), self.tree(depth - 1)
        pick = rng.randrange(9)
        if pick == 0:
            return BinOp(rng.choice([K.ADD, K.SUB, K.XOR, K.AND, K.OR]), a, b)
        if pick == 1:
            return Slice(BinOp(K.MUL, a, Const(rng.randrange(16), 4)), W - 1, 0)
        if pick == 2:
            return Slice(BinOp(K.MULS, a, b), W + 3, 4)
        if pick == 3:
            cond = BinOp(rng.choice([K.ULT, K.SLT, K.EQ, K.SGE]), a, b)
            return Mux(cond, a, copy(b) if rng.random() < 0.5 else b)
        if pick == 4:
            return Ext(Slice(a, 4, 0), W, True)
        if pick == 5:
            return Cat((Slice(a, 3, 0), Slice(b, 7, 4)))
        if pick == 6:
            return BinOp(rng.choice([K.ASHR, K.SHL, K.LSHR]), a,
                         Const(rng.randrange(W + 1), 4))
        if pick == 7:
            return UnOp(rng.choice([UnOpKind.NOT, UnOpKind.NEG]), a)
        return Ext(MemRead(self.mem, Slice(a, 1, 0)), W, False)

    def stimulus(self, cycles: int, lanes: int):
        """Per cycle, per lane, input values; some cycles agree on enables."""
        rng = self.rng
        for _ in range(cycles):
            same = rng.random() < 0.3
            en = [rng.randrange(2) for _ in self.en]
            yield [{**{s.name: rng.randrange(256) for s in self.data},
                    **{s.name: en[i] if same else rng.randrange(2)
                       for i, s in enumerate(self.en)}}
                   for _ in range(lanes)]


LANES = 3


@pytest.mark.parametrize("seed", range(12))
def test_engines_agree_with_interp_cycle_by_cycle(seed):
    net = RandomNetlist(seed)
    per_lane = {engine: [Simulator(net.netlist, engine=engine)
                         for _ in range(LANES)]
                for engine in ("interp", "compiled", "batch")}
    packed = Simulator(net.netlist, engine="batch", lanes=LANES)
    sims = [sim for group in per_lane.values() for sim in group] + [packed]
    for sim in sims:
        sim.reset()
    for cycle, inputs in enumerate(net.stimulus(40, LANES)):
        for name in inputs[0]:
            packed.poke_lanes(name, [lane[name] for lane in inputs])
            for group in per_lane.values():
                for sim, lane in zip(group, inputs):
                    sim.poke(name, lane[name])
        for sim in sims:
            sim.step()
        for sig in net.watch:
            want = [sim.peek_int(sig) for sim in per_lane["interp"]]
            for engine in ("compiled", "batch"):
                got = [sim.peek_int(sig) for sim in per_lane[engine]]
                assert got == want, (engine, sig.name, cycle)
            assert packed.peek_lanes(sig) == want, ("3 lanes", sig.name, cycle)


# ---------------------------------------------------------------------------
# the shape of the emitted code
# ---------------------------------------------------------------------------
def _tick(source: str) -> str:
    return source[source.index("def tick"):]


def _two_group_netlist():
    """Registers under two enables: ``a ^ c`` and ``a * b + c`` (built
    twice) feed both groups, ``(a ^ c) - b`` and ``(a ^ c) | b`` one each."""
    a, b, c = (Signal(n, 16) for n in "abc")
    en0, en1 = Signal("en0", 1), Signal("en1", 1)
    r = [Signal(f"r{i}", 16) for i in range(4)]

    def mac():
        return BinOp(K.ADD, Slice(BinOp(K.MUL, Ref(a), Ref(b)), 15, 0), Ref(c))

    shared = BinOp(K.XOR, Ref(a), Ref(c))
    registers = [
        FlatRegister(r[0], BinOp(K.SUB, shared, Ref(b)), 0, Ref(en0)),
        FlatRegister(r[1], mac(), 0, Ref(en0)),
        FlatRegister(r[2], BinOp(K.OR, shared, Ref(b)), 0, Ref(en1)),
        FlatRegister(r[3], mac(), 0, Ref(en1)),
    ]
    return Netlist("groups", [a, b, c, en0, en1], [], [], registers)


def _multiplies(code: str) -> int:
    # Scalar code multiplies inline; packed code multiplies two signals
    # lane by lane in the ``_pl2`` fallback.
    return len(re.findall(r"\) \* \(|_pl2\(", code))


@pytest.mark.parametrize("compile_", [compile_netlist,
                                      lambda net: compile_batch(net, 4)],
                         ids=["scalar", "packed"])
class TestEmittedShape:
    def test_equal_trees_emit_one_multiply(self, compile_):
        a, b, c = (Signal(n, 16) for n in "abc")
        outs = [Signal(f"o{i}", 16) for i in range(2)]
        assigns = [(o, BinOp(K.ADD, Slice(BinOp(K.MUL, Ref(a), Ref(b)), 15, 0),
                             Ref(c))) for o in outs]
        source = compile_(Netlist("mac", [a, b, c], outs, assigns)).source
        assert _multiplies(source[:source.index("def tick")]) == 1

    def test_one_if_per_distinct_enable(self, compile_):
        net = _two_group_netlist()
        # A register under an equal enable of its own object joins group 0.
        a, en0 = net.inputs[0], net.inputs[3]
        net.registers.append(FlatRegister(Signal("r4", 16), Ref(a), 0, Ref(en0)))
        tick = _tick(compile_(net).source)
        assert re.findall(r"^    e(\d+) = ", tick, re.M) == ["0", "1"]
        # One block computes each group, one commits it.
        assert sorted(re.findall(r"^    if e(\d+)\b", tick, re.M)) == [
            "0", "0", "1", "1"]

    def test_node_two_groups_share_is_computed_before_the_first_if(
            self, compile_):
        tick = _tick(compile_(_two_group_netlist()).source)
        head, blocks = tick.split("\n    if ", 1)
        assert "(v[0]) ^ (v[2])" in head and "(v[0]) ^ (v[2])" not in blocks
        assert _multiplies(head) == 1 and _multiplies(blocks) == 0
        # What one group alone reads is computed inside its block.
        assert "- (v[1])" in blocks and "- (v[1])" not in head
        assert "| (v[1])" in blocks and "| (v[1])" not in head


# ---------------------------------------------------------------------------
# the packed tick's guarded partitions
# ---------------------------------------------------------------------------
def _quiet(rng, names, lanes, cycles):
    """Per cycle, per lane, input values; at most one input changes."""
    values = [{name: rng.randrange(256) for name in names}
              for _ in range(lanes)]
    for _ in range(cycles):
        if rng.random() < 0.7:
            name = rng.choice(names)
            every = rng.random() < 0.5
            for lane in range(lanes) if every else [rng.randrange(lanes)]:
                values[lane][name] = rng.randrange(256)
        yield [dict(lane) for lane in values]


def _drive(packed, oracles, inputs):
    """Poke one cycle's per-lane ``inputs`` into ``packed`` and ``oracles``."""
    for name in inputs[0]:
        packed.poke_lanes(name, [lane[name] for lane in inputs])
        for sim, lane in zip(oracles, inputs):
            sim.poke(name, lane[name])


def _agree(packed, oracles, signals, where):
    for sig in signals:
        want = [sim.peek_int(sig) for sim in oracles]
        assert packed.peek_lanes(sig) == want, (sig.name, where)


@pytest.mark.parametrize("lanes", [1, LANES])
@pytest.mark.parametrize("seed", range(6))
def test_guarded_tick_matches_interp_through_quiet_stretches(seed, lanes):
    net = RandomNetlist(seed)
    packed = Simulator(net.netlist, engine="batch", lanes=lanes)
    assert "if k != g0:" in packed.compiled_source
    oracles = [Simulator(net.netlist, engine="interp") for _ in range(lanes)]
    sims = [packed, *oracles]
    names = [sig.name for sig in net.data + net.en]
    rng = random.Random(seed)
    for cycle, inputs in enumerate(_quiet(rng, names, lanes, 90)):
        if cycle == 30:
            for sim in sims:
                sim.reset()
        if cycle == 50:
            reg, value = rng.choice(net.regs), rng.randrange(256)
            for sim in sims:
                sim.poke_register(reg, value)
        if cycle == 70:
            words = [rng.randrange(256) for _ in range(net.mem.depth)]
            for sim in sims:
                sim.write_memory(net.mem, words)
        _drive(packed, oracles, inputs)
        for sim in sims:
            sim.step()
        _agree(packed, oracles, net.watch, cycle)


def _toggled_netlist():
    """One register under ``en`` whose next value is a two-statement
    partition of ``a`` and ``b``: ``s = a + b; s ^ (s >> 1)``."""
    a, b, en, r = Signal("a", W), Signal("b", W), Signal("en", 1), Signal("r", W)
    s = BinOp(K.ADD, Ref(a), Ref(b))
    nxt = BinOp(K.XOR, s, BinOp(K.LSHR, s, Const(1, 3)))
    return Netlist("toggled", [a, b, en], [], [],
                   [FlatRegister(r, nxt, 5, Ref(en))])


# (a, b, en) per cycle: each input alone changes, under a low enable and
# under a high one; lane 1 sees the enable inverted.
_ONE_AT_A_TIME = [(3, 4, 1), (3, 4, 0), (3, 4, 1), (9, 4, 0), (9, 4, 1),
                  (9, 4, 1), (9, 11, 0), (9, 11, 1), (2, 11, 1), (2, 6, 1),
                  (2, 6, 0), (7, 6, 0), (7, 6, 1), (7, 6, 1)]


def _one_at_a_time(lanes):
    for a, b, en in _ONE_AT_A_TIME:
        yield [{"a": a, "b": b, "en": en ^ (lane == 1)}
               for lane in range(lanes)]


def test_constant_inputs_under_a_toggling_enable():
    net = _toggled_netlist()
    r = net.registers[0].signal
    packed = Simulator(net, engine="batch", lanes=LANES)
    # The partition is guarded inside the enable's block.
    assert re.search(r"^    if e0:\n(?:        .*\n)*?        if k != g0:",
                     _tick(packed.compiled_source), re.M)
    oracles = [Simulator(net, engine="interp") for _ in range(LANES)]
    for cycle, inputs in enumerate(_one_at_a_time(LANES)):
        _drive(packed, oracles, inputs)
        for sim in [packed, *oracles]:
            sim.step()
        _agree(packed, oracles, [r], cycle)


def test_a_step_after_a_tick_that_raised_starts_afresh():
    net = _toggled_netlist()
    r = net.registers[0].signal
    packed = Simulator(net, engine="batch", lanes=2)
    oracles = [Simulator(net, engine="interp") for _ in range(2)]
    _drive(packed, oracles, [{"a": 3, "b": 4, "en": 1}] * 2)
    for sim in [packed, *oracles]:
        sim.step()
    # ``b`` feeds only the tick, so a bad value in its slot raises there,
    # in the guarded partition's body, after the partition saved its guard.
    packed.poke_slot(packed.slot("b"), "not a value")
    with pytest.raises(TypeError):
        packed.step()
    assert packed.cycles == 1
    for cycle, inputs in enumerate(_one_at_a_time(2)):
        _drive(packed, oracles, inputs)
        for sim in [packed, *oracles]:
            sim.step()
        _agree(packed, oracles, [r], cycle)


def test_two_simulators_of_one_netlist_step_alternately():
    net = RandomNetlist(3)
    names = [sig.name for sig in net.data + net.en]
    pairs = [(Simulator(net.netlist, engine="batch", lanes=LANES),
              [Simulator(net.netlist, engine="interp") for _ in range(LANES)])
             for _ in range(2)]
    streams = [_quiet(random.Random(100 + i), names, LANES, 60)
               for i in range(2)]
    for cycle, both in enumerate(zip(*streams)):
        for (packed, oracles), inputs in zip(pairs, both):
            _drive(packed, oracles, inputs)
            for sim in [packed, *oracles]:
                sim.step()
            _agree(packed, oracles, net.watch, cycle)
