"""Cycle-accurate netlist simulation.

:class:`Simulator` drives a flat :class:`~repro.rtl.elaborate.Netlist` (or a
:class:`~repro.rtl.module.Module`, elaborated on the fly) with an implicit
clock.  Three evaluation engines (see :mod:`repro.engines`) share one
semantics:

* ``engine="compiled"`` (default) — the netlist compiler of
  :mod:`repro.sim.compile` with its scalar lowering (one Python int per
  signal), fast enough for system-level AXI-Stream runs;
* ``engine="interp"`` — the reference interpreter from
  :mod:`repro.rtl.ir`, used to cross-check both lowerings in tests;
* ``engine="batch"`` — the same compiler with the lane-packed lowering
  of :mod:`repro.sim.batch`: ``lanes`` lockstep copies of the design,
  one settle/tick pass for all of them.  At one lane it runs the exact
  code a multi-lane simulator executes.

The simulation contract per clock cycle: poke inputs, (implicitly) settle
combinational logic, observe outputs, then :meth:`step` commits registers
and memory writes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..core.bits import BV
from ..core.errors import SimulationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resilience import budget as res_budget
from ..rtl.elaborate import Netlist, elaborate
from ..rtl.ir import Signal, eval_expr
from ..rtl.module import Memory, Module
from .compile import compile_netlist, index_maps

__all__ = ["Simulator"]


class Simulator:
    """Single-clock synchronous simulator of ``lanes`` design copies.

    Lane ``i`` is an independent copy of the design; only
    ``engine="batch"`` runs more than one.  Every value is packed: lane
    ``i`` of a signal sits at bit ``i * stride`` of its slot (with one
    lane, or ``stride`` 0 on the scalar engines, the packed value is the
    plain value).  :meth:`poke` drives every lane and :meth:`poke_lanes`
    one value per lane; :meth:`peek` reads lane 0 and :meth:`peek_lanes`
    every lane.  A stream driver uses the slot interface — :meth:`slot`,
    :meth:`poke_slot`, :meth:`peek_slot`, :meth:`settle`, :meth:`step`,
    ``lanes`` and ``stride``.  Memory state is one list per lane; the
    scalar engines read and write lane 0's.
    """

    def __init__(
        self,
        design: Module | Netlist,
        engine: str = "compiled",
        lanes: int = 1,
    ) -> None:
        if isinstance(design, Module):
            design = elaborate(design)
        try:
            from ..engines import resolve_engine

            engine = resolve_engine(engine, "sim")
        except ValueError as exc:
            # Historical contract: a bad engine at the simulator level is
            # a SimulationError, not a usage error.
            raise SimulationError(str(exc)) from exc
        if lanes < 1:
            raise SimulationError(f"a simulator needs lanes >= 1, got {lanes}")
        if lanes > 1 and engine != "batch":
            raise SimulationError(
                f"engine {engine!r} simulates one lane; lanes={lanes} "
                f"needs engine 'batch'")
        self.netlist = design
        self.engine = engine
        self.lanes = lanes
        if engine == "interp":
            self._compiled = None
            self._index_of, self._mem_index_of = index_maps(design)
            self._fields: dict[Signal, tuple[Signal, ...]] = {}
            self._registers = design.registers
            self._settle_code = self._settle_interp
            self._tick_code = self._tick_interp
        else:
            if engine == "batch":
                from .batch import compile_batch

                self._compiled = compile_batch(design, lanes)
            else:
                self._compiled = compile_netlist(design)
            self._index_of = self._compiled.index_of
            self._mem_index_of = self._compiled.mem_index_of
            # The batch lowering may split wide signals into fields; the
            # registers to reset are the ones the code was compiled from.
            self._fields = self._compiled.fields
            self._registers = self._compiled.netlist.registers
            self._settle_code = self._compiled.settle
            self._tick_code = self._compiled.tick
        self.stride = self._compiled.stride if engine == "batch" else 0
        self._ones = sum(1 << (i * self.stride) for i in range(lanes))
        self._by_name = {sig.name: sig
                         for sig in (*self._index_of, *self._fields)}
        self._inputs = set(design.inputs)
        self._values: list[int] = [0] * len(self._index_of)
        self._mems: list[list[list[int]]] = []   # [memory][lane][address]
        # Only the interpreter walks assigns itself; the compilers levelize.
        self._comb_order = design.comb_order() if engine == "interp" else []
        self._dirty = True
        self.cycles = 0
        self.settles = 0   # lifetime count of combinational settle passes
        self._watchers: list[Callable[[int], None]] = []
        if obs_trace.enabled():
            obs_metrics.inc("sim.instances")
            obs_metrics.inc(f"sim.engine.{engine}")
            if lanes > 1:
                obs_metrics.observe("sim.batch.lanes", lanes)
        self.reset()

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Synchronous reset of every lane: registers and memories to init."""
        for i in range(len(self._values)):
            self._values[i] = 0
        for reg in self._registers:
            self._values[self._index_of[reg.signal]] = reg.init * self._ones
        self._mems = []
        for mem in self.netlist.memories:
            words = list(mem.init[: mem.depth])
            words += [0] * (mem.depth - len(words))
            msk = (1 << mem.width) - 1
            base = [w & msk for w in words]
            self._mems.append([list(base) for _ in range(self.lanes)])
        # The lane-packed code indexes memory by lane; the scalar engines
        # see lane 0's lists (shared, so their writes land in the state).
        self._engine_mems = (self._mems if self.engine == "batch"
                             else [lanes[0] for lanes in self._mems])
        self.cycles = 0
        self._dirty = True

    def _resolve(self, signal: Signal | str) -> Signal:
        if isinstance(signal, str):
            resolved = self._by_name.get(signal)
            if resolved is None:
                raise SimulationError(f"no signal named {signal!r}")
            return resolved
        if signal not in self._index_of and signal not in self._fields:
            raise SimulationError(f"signal {signal.name!r} is not in this netlist")
        return signal

    def slot(self, signal: Signal | str) -> int:
        """The state-vector index of a signal, for :meth:`poke_slot`/:meth:`peek_slot`."""
        sig = self._resolve(signal)
        if sig in self._fields:
            raise SimulationError(
                f"signal {sig.name!r} is split into fields and has no one slot")
        return self._index_of[sig]

    # ------------------------------------------------------------------
    # poke / peek
    # ------------------------------------------------------------------
    def poke_slot(self, slot: int, value: int) -> None:
        """Trusted fast path: drive a pre-packed value (lanes pre-masked)."""
        self._values[slot] = value
        self._dirty = True

    def peek_slot(self, slot: int) -> int:
        """The settled packed value in a slot."""
        self.settle()
        return self._values[slot]

    def _input(self, signal: Signal | str) -> Signal:
        sig = self._resolve(signal)
        if sig not in self._inputs:
            raise SimulationError(f"cannot poke non-input signal {sig.name!r}")
        return sig

    def poke(self, signal: Signal | str, value: int | BV) -> None:
        """Drive an input signal on every lane (held until poked again)."""
        sig = self._input(signal)
        if isinstance(value, BV):
            if value.width != sig.width:
                raise SimulationError(
                    f"poke {sig.name!r}: BV width {value.width} != {sig.width}"
                )
            value = value.uint
        masked = value & ((1 << sig.width) - 1)
        self._values[self._index_of[sig]] = masked * self._ones
        self._dirty = True

    def poke_lanes(self, signal: Signal | str, values: Sequence[int]) -> None:
        """Drive one value per lane into an input."""
        sig = self._input(signal)
        if len(values) != self.lanes:
            raise SimulationError(
                f"poke_lanes {sig.name!r}: expected {self.lanes} values, "
                f"got {len(values)}")
        msk = (1 << sig.width) - 1
        packed = 0
        for i, value in enumerate(values):
            packed |= (value & msk) << (i * self.stride)
        self._values[self._index_of[sig]] = packed
        self._dirty = True

    def poke_register(self, signal: Signal | str, value: int | BV) -> None:
        """Testbench backdoor: overwrite a register's value on every lane."""
        sig = self._resolve(signal)
        if not any(reg.signal is sig for reg in self.netlist.registers):
            raise SimulationError(f"{sig.name!r} is not a register")
        if isinstance(value, BV):
            value = value.uint
        for part in self._fields.get(sig, (sig,)):
            masked = value & ((1 << part.width) - 1)
            self._values[self._index_of[part]] = masked * self._ones
            value >>= part.width
        self._dirty = True

    def peek_lanes(self, signal: Signal | str) -> list[int]:
        """The settled per-lane values of any signal (a split one is reassembled)."""
        sig = self._resolve(signal)
        self.settle()
        values = [0] * self.lanes
        for part in reversed(self._fields.get(sig, (sig,))):
            packed = self._values[self._index_of[part]]
            msk = (1 << part.width) - 1
            values = [(value << part.width) | (packed >> (i * self.stride) & msk)
                      for i, value in enumerate(values)]
        return values

    def peek_lane(self, signal: Signal | str, lane: int) -> int:
        """One lane's settled value of any signal."""
        return self.peek_lanes(signal)[lane]

    def peek(self, signal: Signal | str) -> BV:
        """Observe lane 0's settled value of any signal."""
        sig = self._resolve(signal)
        return BV(self.peek_lanes(sig)[0], sig.width)

    def peek_int(self, signal: Signal | str) -> int:
        """Observe lane 0's settled value as an unsigned integer."""
        return self.peek_lanes(signal)[0]

    def read_memory(self, mem: Memory) -> list[int]:
        """Snapshot lane 0's memory contents."""
        return list(self._mems[self._mem_index(mem)][0])

    def write_memory(self, mem: Memory, contents: Iterable[int]) -> None:
        """Overwrite a memory's contents on every lane (testbench backdoor)."""
        index = self._mem_index(mem)
        words = list(contents)
        if len(words) != mem.depth:
            raise SimulationError(
                f"memory {mem.name!r}: expected {mem.depth} words, got {len(words)}"
            )
        msk = (1 << mem.width) - 1
        for lane in self._mems[index]:
            # In place: the scalar engines hold lane 0's list.
            lane[:] = [w & msk for w in words]
        self._dirty = True

    def _mem_index(self, mem: Memory) -> int:
        index = self._mem_index_of.get(mem)
        if index is None:
            raise SimulationError(f"memory {mem.name!r} is not in this netlist")
        return index

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Propagate combinational logic if any input or state changed."""
        if not self._dirty:
            return
        self._settle_code(self._values, self._engine_mems)
        self._dirty = False
        self.settles += 1

    def _settle_interp(self, values: list[int], mems: list[list[int]]) -> None:
        read = lambda sig: values[self._index_of[sig]]
        read_mem = lambda mem, addr: mems[self._mem_index_of[mem]][addr % mem.depth]
        for sig, expr in self._comb_order:
            values[self._index_of[sig]] = eval_expr(expr, read, read_mem)

    def step(self, cycles: int = 1) -> None:
        """Advance every lane by ``cycles`` clock edges.

        While a :mod:`repro.resilience.budget` is armed, each edge charges
        one cycle against it — one clock, however many lanes it advances;
        :class:`~repro.core.errors.BudgetExceeded` propagates before the
        over-budget edge is simulated.
        """
        charge = res_budget.charge
        for _ in range(cycles):
            charge()
            self.settle()
            self._tick_code(self._values, self._engine_mems)
            self._dirty = True
            if self.lanes == 1:
                # One lane settles right after the edge, B lanes at the
                # next peek.  The one-lane pass is redundant, but the
                # throughput bars of benchmarks/bench_sim_speed.py were
                # set on this schedule (ROADMAP item 2).
                self.settle()
            self.cycles += 1
            for watcher in self._watchers:
                watcher(self.cycles)

    def _tick_interp(self, values: list[int], mems: list[list[int]]) -> None:
        read = lambda sig: values[self._index_of[sig]]
        read_mem = lambda mem, addr: mems[self._mem_index_of[mem]][addr % mem.depth]
        reg_updates: list[tuple[int, int]] = []
        for reg in self.netlist.registers:
            if reg.en is not None and not eval_expr(reg.en, read, read_mem):
                continue
            reg_updates.append(
                (self._index_of[reg.signal], eval_expr(reg.next, read, read_mem))
            )
        mem_updates: list[tuple[int, int, int]] = []
        for mi, mem in enumerate(self.netlist.memories):
            for write in mem.writes:
                if eval_expr(write.en, read, read_mem):
                    addr = eval_expr(write.addr, read, read_mem) % mem.depth
                    data = eval_expr(write.data, read, read_mem) & ((1 << mem.width) - 1)
                    mem_updates.append((mi, addr, data))
        for index, value in reg_updates:
            values[index] = value
        for mi, addr, data in mem_updates:
            mems[mi][addr] = data

    def run_until(
        self,
        predicate: Callable[["Simulator"], bool],
        timeout: int = 10_000,
    ) -> int:
        """Step until ``predicate(self)`` holds; returns cycles consumed.

        Raises :class:`SimulationError` when ``timeout`` cycles pass first.
        """
        start = self.cycles
        while not predicate(self):
            if self.cycles - start >= timeout:
                raise SimulationError(
                    f"run_until timed out after {timeout} cycles",
                    phase="sim.run_until", timeout=timeout,
                )
            self.step()
        return self.cycles - start

    def add_watcher(self, watcher: Callable[[int], None]) -> None:
        """Register a callback invoked after every clock edge."""
        self._watchers.append(watcher)

    # ------------------------------------------------------------------
    @property
    def compiled_source(self) -> str:
        """The generated Python source (debugging aid)."""
        if self._compiled is None:
            raise SimulationError("the interp engine compiles no source")
        return self._compiled.source
