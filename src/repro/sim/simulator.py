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
  of :mod:`repro.sim.batch`, run at one lane, so single-block use sites
  can exercise the exact code a multi-lane
  :class:`~repro.sim.BatchSimulator` executes.

The simulation contract per clock cycle: poke inputs, (implicitly) settle
combinational logic, observe outputs, then :meth:`step` commits registers
and memory writes and settles again.
"""

from __future__ import annotations

from typing import Callable, Iterable

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
    """Single-clock synchronous simulator for an elaborated netlist.

    It is the one-lane case of the slot interface a stream driver uses
    (shared with :class:`~repro.sim.BatchSimulator`): :meth:`slot`,
    :meth:`poke_slot`, :meth:`peek_slot`, :meth:`settle`, :meth:`step`,
    ``lanes`` and ``stride``.  With one lane a packed value is the plain
    value, so there is no lane offset.
    """

    lanes = 1
    stride = 0

    def __init__(
        self,
        design: Module | Netlist,
        engine: str = "compiled",
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
        self.netlist = design
        self.engine = engine
        if engine == "interp":
            self._compiled = None
            self._index_of, self._mem_index_of = index_maps(design)
            self._fields: dict[Signal, tuple[Signal, ...]] = {}
            self._registers = design.registers
        else:
            if engine == "batch":
                from .batch import scalar_adapter

                self._compiled = scalar_adapter(design)
            else:
                self._compiled = compile_netlist(design)
            self._index_of = self._compiled.index_of
            self._mem_index_of = self._compiled.mem_index_of
            # The batch lowering may split wide signals into fields; the
            # registers to reset are the ones the code was compiled from.
            self._fields = self._compiled.fields
            self._registers = self._compiled.netlist.registers
        self._by_name = {sig.name: sig
                         for sig in (*self._index_of, *self._fields)}
        self._inputs = set(design.inputs)
        self._values: list[int] = [0] * len(self._index_of)
        self._mems: list[list[int]] = []
        # Only the interpreter walks assigns itself; the compilers levelize.
        self._comb_order = design.comb_order() if engine == "interp" else []
        self._dirty = True
        self.cycles = 0
        self.settles = 0   # lifetime count of combinational settle passes
        self._watchers: list[Callable[[int], None]] = []
        if obs_trace.enabled():
            obs_metrics.inc("sim.instances")
            obs_metrics.inc(f"sim.engine.{engine}")
        self.reset()

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Synchronous reset: registers to init values, memories to init."""
        for sig in self._index_of:
            self._values[self._index_of[sig]] = 0
        for reg in self._registers:
            self._values[self._index_of[reg.signal]] = reg.init
        self._mems = []
        for mem in self.netlist.memories:
            words = list(mem.init[: mem.depth])
            words += [0] * (mem.depth - len(words))
            msk = (1 << mem.width) - 1
            self._mems.append([w & msk for w in words])
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
        """Trusted fast path: drive a pre-masked value into an input slot."""
        self._values[slot] = value
        self._dirty = True

    def peek_slot(self, slot: int) -> int:
        """The settled value in a slot."""
        self.settle()
        return self._values[slot]

    def poke(self, signal: Signal | str, value: int | BV) -> None:
        """Drive an input signal (held until poked again)."""
        sig = self._resolve(signal)
        if sig not in self._inputs:
            raise SimulationError(f"cannot poke non-input signal {sig.name!r}")
        if isinstance(value, BV):
            if value.width != sig.width:
                raise SimulationError(
                    f"poke {sig.name!r}: BV width {value.width} != {sig.width}"
                )
            value = value.uint
        self._values[self._index_of[sig]] = value & ((1 << sig.width) - 1)
        self._dirty = True

    def poke_register(self, signal: Signal | str, value: int | BV) -> None:
        """Testbench backdoor: overwrite a register's current value."""
        sig = self._resolve(signal)
        if not any(reg.signal is sig for reg in self.netlist.registers):
            raise SimulationError(f"{sig.name!r} is not a register")
        if isinstance(value, BV):
            value = value.uint
        for part in self._fields.get(sig, (sig,)):
            self._values[self._index_of[part]] = value & ((1 << part.width) - 1)
            value >>= part.width
        self._dirty = True

    def peek(self, signal: Signal | str) -> BV:
        """Observe any signal's settled value (a split one is reassembled)."""
        sig = self._resolve(signal)
        self.settle()
        fields = self._fields.get(sig)
        if fields is None:
            return BV(self._values[self._index_of[sig]], sig.width)
        value = 0
        for part in reversed(fields):
            value = (value << part.width) | self._values[self._index_of[part]]
        return BV(value, sig.width)

    def peek_int(self, signal: Signal | str) -> int:
        """Observe a signal as an unsigned integer."""
        return self.peek(signal).uint

    def read_memory(self, mem: Memory) -> list[int]:
        """Snapshot a memory's contents."""
        index = self._mem_index_of.get(mem)
        if index is None:
            raise SimulationError(f"memory {mem.name!r} is not in this netlist")
        return list(self._mems[index])

    def write_memory(self, mem: Memory, contents: Iterable[int]) -> None:
        """Overwrite a memory's contents (testbench backdoor)."""
        index = self._mem_index_of.get(mem)
        if index is None:
            raise SimulationError(f"memory {mem.name!r} is not in this netlist")
        words = list(contents)
        if len(words) != mem.depth:
            raise SimulationError(
                f"memory {mem.name!r}: expected {mem.depth} words, got {len(words)}"
            )
        msk = (1 << mem.width) - 1
        self._mems[index] = [w & msk for w in words]
        self._dirty = True

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Propagate combinational logic if any input or state changed."""
        if not self._dirty:
            return
        if self.engine == "interp":
            self._settle_interp()
        else:
            self._compiled.settle(self._values, self._mems)
        self._dirty = False
        self.settles += 1

    def _settle_interp(self) -> None:
        read = lambda sig: self._values[self._index_of[sig]]
        read_mem = lambda mem, addr: self._mems[self._mem_index_of[mem]][addr % mem.depth]
        for sig, expr in self._comb_order:
            self._values[self._index_of[sig]] = eval_expr(expr, read, read_mem)

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` edges.

        While a :mod:`repro.resilience.budget` is armed, each edge charges
        one cycle against it; :class:`~repro.core.errors.BudgetExceeded`
        propagates before the over-budget edge is simulated.
        """
        charge = res_budget.charge
        for _ in range(cycles):
            charge()
            self.settle()
            if self.engine == "interp":
                self._tick_interp()
            else:
                self._compiled.tick(self._values, self._mems)
            self._dirty = True
            self.settle()
            self.cycles += 1
            for watcher in self._watchers:
                watcher(self.cycles)

    def _tick_interp(self) -> None:
        read = lambda sig: self._values[self._index_of[sig]]
        read_mem = lambda mem, addr: self._mems[self._mem_index_of[mem]][addr % mem.depth]
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
            self._values[index] = value
        for mi, addr, data in mem_updates:
            self._mems[mi][addr] = data

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
