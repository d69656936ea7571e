"""The mini-C HLS compiler: scheduling and FSM/datapath generation.

The compiler lowers one flattened (inlined) C function into a synchronous
FSM + datapath module:

* **scalars** become registers (C ``int`` = 32 bits, ``short`` = 16);
* **arrays** become BRAM-style memories with a fixed number of read/write
  ports (the Bambu ``channels-type`` model), or — when partitioned — banks
  of individual registers;
* **straight-line code** is list-scheduled into clock cycles with
  operation chaining bounded by the target clock period and by the memory
  ports available per cycle;
* **loops** stay rolled (one shared body datapath, the area-saving default
  of C HLS), are fully unrolled under ``#pragma HLS UNROLL``, or are
  software-pipelined under ``#pragma HLS PIPELINE`` (one iteration per
  cycle through an automatically staged datapath);
* **non-inlined call boundaries** (the Vivado push-button behaviour the
  paper describes) cost handshake cycles between FSM regions;
* ``#pragma HLS INTERFACE axis`` makes the tool generate the row-by-row
  AXI-Stream staging FSM around the top array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...core.errors import HlsError, ScheduleError
from ...rtl import Module, ops
from ...rtl.ir import Const, Expr, MemRead, Ref, Signal, expr_children
from ...rtl.module import Memory
from ...synth.cost import node_cost
from ...synth.tech import ULTRASCALE_PLUS, Tech
from .cast import (
    AssignStmt,
    BinExpr,
    Block,
    CondExpr,
    DeclStmt,
    Expr as CExpr,
    ExprStmt,
    ForStmt,
    Function,
    IfStmt,
    IndexExpr,
    NumExpr,
    ReturnStmt,
    StoreStmt,
    UnExpr,
    VarExpr,
)
from .transform import RegionMarker, const_value, fold_expr, unroll_loop

__all__ = ["HlsOptions", "HlsResult", "Compiler"]

INT_W, SHORT_W = 32, 16


@dataclass(frozen=True)
class HlsOptions:
    """Tool configuration (command-line options and pragma enables)."""

    clock_period_ns: float = 10.0
    mem_read_ports: int = 1
    mem_write_ports: int = 1
    call_overhead: int = 2          # cycles per non-inlined call boundary
    enable_pipeline_pragmas: bool = True
    enable_unroll_pragmas: bool = True
    chaining: bool = True           # pack dependent ops into one cycle
    partition_arrays: frozenset = frozenset()
    axis_arrays: frozenset = frozenset()  # arrays with INTERFACE axis
    bram_policy: str = "LSS"        # reporting knob (Bambu memory-allocation)


@dataclass
class HlsResult:
    """Compilation artifacts and schedule statistics."""

    module: Module
    n_states: int
    loop_info: dict[str, dict] = field(default_factory=dict)
    regions: int = 0
    schedule_retries: int = 0


@dataclass
class _Transition:
    kind: str                   # "goto" | "branch" | "wait" | "expr" | "done"
    target: int | None = None
    cond: Expr | None = None
    target_false: int | None = None
    next_expr: Expr | None = None  # for kind == "expr": the next state value


@dataclass
class _State:
    index: int
    var_writes: dict[str, Expr] = field(default_factory=dict)
    gate: Expr | None = None    # extra enable on every write in this state
    transition: _Transition = field(default_factory=lambda: _Transition("goto"))


class _BankArray:
    """A completely partitioned array: one register per element."""

    def __init__(self, name: str, size: int, width: int) -> None:
        self.name = name
        self.size = size
        self.width = width

    def element(self, index: int) -> str:
        return f"{self.name}__{index}"


class _MemArray:
    """A memory-mapped array with physical ports."""

    def __init__(self, name: str, memory: Memory, width: int) -> None:
        self.name = name
        self.memory = memory
        self.width = width


class Compiler:
    """Compiles one flattened function into an FSM + datapath module."""

    def __init__(self, function: Function, options: HlsOptions,
                 tech: Tech = ULTRASCALE_PLUS, name: str | None = None) -> None:
        self.fn = function
        self.options = options
        self.tech = tech
        self.module = Module(name or f"hls_{function.name}")
        self._vars: dict[str, tuple[Signal, int]] = {}  # name -> (reg, width)
        self._arrays: dict[str, _BankArray | _MemArray] = {}
        self._states: list[_State] = []
        self._chain: dict[str, Expr] = {}
        # Arrival-time memo keyed by id(expr).  Each entry retains the expr
        # itself: a dangling id from a freed node could be reused by a later
        # allocation and alias a stale arrival, making schedules depend on
        # heap history.
        self._arrival: dict[int, tuple[Expr, float]] = {}
        self._stores_this_cycle: list[tuple[_MemArray, Expr, Expr]] = []
        self._cur_gate: Expr | None = None
        self._read_ports: dict[str, list[list[tuple[int, Expr]]]] = {}
        self._read_wires: dict[tuple[str, int], Signal] = {}
        self._write_recs: dict[str, list[list[tuple[int, Expr | None, Expr, Expr]]]] = {}
        self._pipe_count = 0
        self._pipe_finalizers: list = []
        self._port_refs: dict[tuple[str, int], Expr] = {}
        self.loop_info: dict[str, dict] = {}
        self.regions = 0
        self.schedule_retries = 0  # state-close retries (obs: chls.schedule.iterations)

    # ==================================================================
    # state machinery
    # ==================================================================
    def _state_index(self) -> int:
        return len(self._states)

    def _close(self, transition: _Transition) -> _State:
        """Finish the cycle under construction as a new state."""
        state = _State(index=len(self._states), gate=self._cur_gate,
                       transition=transition)
        for var, expr in self._chain.items():
            reg, width = self._vars[var]
            state.var_writes[var] = ops.resize(expr, width, signed=True)
        self._states.append(state)
        for mem_arr, addr, data in self._stores_this_cycle:
            self._record_store(state.index, mem_arr, addr, data)
        self._chain.clear()
        self._stores_this_cycle = []
        self._cur_gate = None
        return state

    def _cycle_in_use(self) -> bool:
        return bool(self._chain) or bool(self._stores_this_cycle)

    # -- variables -------------------------------------------------------
    def _declare_var(self, name: str, width: int) -> Signal:
        if name in self._vars:
            return self._vars[name][0]
        reg = self.module.reg(f"v_{name}", width)
        self._vars[name] = (reg, width)
        return reg

    def _read_var(self, name: str) -> Expr:
        if name in self._chain:
            return ops.sext(self._chain[name], INT_W)
        if name not in self._vars:
            raise HlsError(f"read of undeclared variable {name!r}")
        reg, _width = self._vars[name]
        return ops.sext(Ref(reg), INT_W)

    def _write_var(self, name: str, value: Expr) -> None:
        if name not in self._vars:
            raise HlsError(f"write to undeclared variable {name!r}")
        self._chain[name] = value

    # -- timing ------------------------------------------------------------
    def _node_arrival(self, expr: Expr) -> float:
        key = id(expr)
        cached = self._arrival.get(key)
        if cached is not None:
            return cached[1]
        if isinstance(expr, Const):
            value = 0.0
        elif isinstance(expr, Ref):
            value = 0.1
        else:
            # A MemRead's cost does not depend on allow_dsp: only
            # multipliers map to DSPs.
            base = max(map(self._node_arrival, expr_children(expr)),
                       default=0.0)
            value = base + node_cost(expr, self.tech, allow_dsp=False).delay
        self._arrival[key] = (expr, value)
        return value

    def _budget(self) -> float:
        return self.options.clock_period_ns * 0.85  # leave margin for control

    # ==================================================================
    # arrays and memory ports
    # ==================================================================
    def declare_array(self, name: str, size: int, width: int) -> None:
        if name in self._arrays:
            raise HlsError(f"array {name!r} declared twice")
        if name in self.options.partition_arrays:
            bank = _BankArray(name, size, width)
            for j in range(size):
                self._declare_var(bank.element(j), width)
            self._arrays[name] = bank
        else:
            memory = self.module.memory(
                f"mem_{name}", size, width,
                max_read_ports=self.options.mem_read_ports,
                max_write_ports=self.options.mem_write_ports,
            )
            self._arrays[name] = _MemArray(name, memory, width)

    def _load(self, name: str, index: CExpr) -> Expr:
        array = self._arrays.get(name)
        if array is None:
            raise HlsError(f"load from unknown array {name!r}")
        if isinstance(array, _BankArray):
            const = const_value(index)
            if const is not None:
                return self._read_var(array.element(const % array.size))
            idx = self._eval(index)
            elements = [self._read_var(array.element(j)) for j in range(array.size)]
            sel_width = max(1, (array.size - 1).bit_length())
            return ops.sext(
                ops.select(ops.bits(idx, sel_width - 1, 0), elements, signed=True),
                INT_W,
            )
        # Memory-mapped: allocate a read port slot for this cycle.
        idx = self._eval(index)
        slot = self._alloc_read_port(array, idx)
        wire = self._read_wires[(array.name, slot)]
        ref = self._port_refs.setdefault((array.name, slot), Ref(wire))
        self._arrival[id(ref)] = (ref, self._node_arrival(idx) + 0.8)
        return ops.sext(ref, INT_W)

    def _alloc_read_port(self, array: _MemArray, addr: Expr) -> int:
        ports = self._read_ports.setdefault(
            array.name, [[] for _ in range(self.options.mem_read_ports)]
        )
        state_idx = self._state_index()
        for slot, records in enumerate(ports):
            used = [rec for rec in records if rec[0] == state_idx]
            if not used:
                records.append((state_idx, addr))
                if (array.name, slot) not in self._read_wires:
                    wire = self.module.wire(f"rd_{array.name}_{slot}", array.width)
                    self._read_wires[(array.name, slot)] = wire
                return slot
        raise ScheduleError("out of read ports this cycle",
                            phase="chls.schedule",
                            array=array.name,
                            read_ports=self.options.mem_read_ports)

    def _store(self, name: str, index: CExpr, value: Expr) -> None:
        array = self._arrays.get(name)
        if array is None:
            raise HlsError(f"store to unknown array {name!r}")
        sized = ops.resize(value, array.width, signed=True)
        if isinstance(array, _BankArray):
            const = const_value(index)
            if const is not None:
                self._write_var(array.element(const % array.size), sized)
                return
            idx = self._eval(index)
            sel_width = max(1, (array.size - 1).bit_length())
            idx_bits = ops.bits(idx, sel_width - 1, 0)
            for j in range(array.size):
                old = ops.resize(self._read_var(array.element(j)), array.width,
                                 signed=True)
                self._write_var(
                    array.element(j),
                    ops.mux(ops.eq(idx_bits, ops.const(j, sel_width)), sized, old),
                )
            return
        # Memory-mapped store: one write port slot per cycle.
        used = len([s for s in self._stores_this_cycle if s[0] is array])
        if used >= self.options.mem_write_ports:
            raise ScheduleError("out of write ports this cycle",
                                phase="chls.schedule", array=array.name,
                                write_ports=self.options.mem_write_ports)
        idx = self._eval(index)
        self._stores_this_cycle.append((array, idx, sized))

    def _record_store(self, state_idx: int, array: _MemArray, addr: Expr,
                      data: Expr) -> None:
        recs = self._write_recs.setdefault(
            array.name, [[] for _ in range(self.options.mem_write_ports)]
        )
        for slot, records in enumerate(recs):
            if not any(rec[0] == state_idx for rec in records):
                records.append((state_idx, self._states[state_idx].gate, addr, data))
                return
        raise ScheduleError("out of write ports at finalize",
                            phase="chls.schedule", array=array.name,
                            write_ports=self.options.mem_write_ports)

    # ==================================================================
    # expression evaluation (C semantics, 32-bit)
    # ==================================================================
    def _eval(self, expr: CExpr) -> Expr:
        expr = fold_expr(expr)
        if isinstance(expr, NumExpr):
            return ops.const(expr.value, INT_W)
        if isinstance(expr, VarExpr):
            return self._read_var(expr.name)
        if isinstance(expr, IndexExpr):
            return self._load(expr.array, expr.index)
        if isinstance(expr, UnExpr):
            operand = self._eval(expr.operand)
            if expr.op == "-":
                return ops.neg(operand)
            if expr.op == "~":
                return ops.bnot(operand)
            if expr.op == "!":
                return ops.zext(ops.eq(operand, ops.const(0, INT_W)), INT_W)
            raise HlsError(f"unsupported unary {expr.op!r}")
        if isinstance(expr, BinExpr):
            return self._eval_bin(expr)
        if isinstance(expr, CondExpr):
            cond = self._bool(expr.cond)
            return ops.mux(cond, self._eval(expr.if_true), self._eval(expr.if_false))
        raise HlsError(f"cannot evaluate {type(expr).__name__} (calls must be inlined)")

    def _eval_bin(self, expr: BinExpr) -> Expr:
        op = expr.op
        if op in ("&&", "||"):
            left = self._bool(expr.left)
            right = self._bool(expr.right)
            combined = ops.band(left, right) if op == "&&" else ops.bor(left, right)
            return ops.zext(combined, INT_W)
        left = self._eval(expr.left)
        if op in ("<<", ">>"):
            shift = const_value(expr.right)
            if shift is None:
                amount = self._eval(expr.right)
                return (ops.shl(left, ops.bits(amount, 5, 0)) if op == "<<"
                        else ops.ashr(left, ops.bits(amount, 5, 0)))
            return ops.trunc(ops.shl(left, shift), INT_W) if op == "<<" \
                else ops.ashr(left, shift)
        right = self._eval(expr.right)
        if op == "+":
            return ops.add(left, right)
        if op == "-":
            return ops.sub(left, right)
        if op == "*":
            return ops.trunc(ops.mul(left, right, signed=True), INT_W)
        if op == "&":
            return ops.band(left, right)
        if op == "|":
            return ops.bor(left, right)
        if op == "^":
            return ops.bxor(left, right)
        if op in ("<", "<=", ">", ">="):
            compare = {"<": ops.lt, "<=": ops.le, ">": ops.gt, ">=": ops.ge}[op]
            return ops.zext(compare(left, right, signed=True), INT_W)
        if op in ("==", "!="):
            compare = ops.eq if op == "==" else ops.ne
            return ops.zext(compare(left, right), INT_W)
        if op in ("/", "%"):
            raise HlsError("division requires constant operands in this subset")
        raise HlsError(f"unsupported operator {op!r}")

    def _bool(self, expr: CExpr) -> Expr:
        value = self._eval(expr)
        if value.width == 1:
            return value
        return ops.ne(value, ops.const(0, INT_W))

    # ==================================================================
    # statement scheduling
    # ==================================================================
    def compile_block(self, block: Block) -> None:
        for stmt in block.statements:
            self.compile_stmt(stmt)

    def compile_stmt(self, stmt) -> None:
        if isinstance(stmt, Block):
            self.compile_block(stmt)
        elif isinstance(stmt, DeclStmt):
            if stmt.array_size is not None:
                self.declare_array(stmt.name, stmt.array_size,
                                   SHORT_W if stmt.ctype == "short" else INT_W)
            else:
                self._declare_var(stmt.name,
                                  SHORT_W if stmt.ctype == "short" else INT_W)
                if stmt.init is not None:
                    self._schedule_assign(stmt.name, stmt.init)
        elif isinstance(stmt, AssignStmt):
            self._schedule_assign(stmt.name, stmt.value)
        elif isinstance(stmt, StoreStmt):
            self._schedule_store(stmt)
        elif isinstance(stmt, IfStmt):
            self._compile_if(stmt)
        elif isinstance(stmt, ForStmt):
            self._compile_for(stmt)
        elif isinstance(stmt, RegionMarker):
            self._compile_region(stmt)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self._schedule_assign("__retval", stmt.value)
        elif isinstance(stmt, ExprStmt):
            raise HlsError("expression statements should have been inlined away")
        else:
            raise HlsError(f"cannot compile {type(stmt).__name__}")

    def _schedule_assign(self, name: str, value: CExpr) -> None:
        if name == "__retval" and name not in self._vars:
            self._declare_var(name, INT_W)
        self._try_in_cycle(lambda: self._write_var(name, self._eval(value)))

    def _schedule_store(self, stmt: StoreStmt) -> None:
        self._try_in_cycle(lambda: self._store(stmt.array, stmt.index,
                                               self._eval(stmt.value)))

    def _try_in_cycle(self, action) -> None:
        """Run an action; on resource/timing overflow, close and retry."""
        checkpoint = self._snapshot()
        try:
            action()
            if self.options.chaining:
                over = any(
                    self._node_arrival(expr) > self._budget()
                    for expr in self._chain.values()
                )
            else:
                over = len(self._chain) > 1 or bool(self._stores_this_cycle)
            if over and checkpoint["had_content"]:
                raise ScheduleError("over budget", phase="chls.schedule")
            if over and not checkpoint["had_content"]:
                # A single operation that exceeds the budget on its own:
                # accept it (the clock stretches, as real tools report).
                pass
        except ScheduleError:
            self.schedule_retries += 1
            self._restore(checkpoint)
            self._close(_Transition("goto", self._state_index() + 1))
            try:
                action()
            except ScheduleError as exc:
                raise HlsError(
                    "a single statement needs more memory ports than the "
                    f"configuration provides ({exc})",
                    phase="chls.schedule",
                ) from exc

    def _snapshot(self) -> dict:
        return {
            "chain": dict(self._chain),
            "stores": list(self._stores_this_cycle),
            "ports": {name: [list(s) for s in slots]
                      for name, slots in self._read_ports.items()},
            "had_content": self._cycle_in_use(),
        }

    def _restore(self, checkpoint: dict) -> None:
        self._chain = checkpoint["chain"]
        self._stores_this_cycle = checkpoint["stores"]
        self._read_ports = checkpoint["ports"]

    # -- control flow ------------------------------------------------------
    def _compile_if(self, stmt: IfStmt) -> None:
        cond = self._bool(stmt.cond)
        branch_state = self._close(_Transition("branch", cond=cond))
        then_first = self._state_index()
        self.compile_block(stmt.then_body)
        then_tail = self._close(_Transition("goto"))
        if stmt.else_body is not None:
            else_first = self._state_index()
            self.compile_block(stmt.else_body)
            else_tail = self._close(_Transition("goto"))
        else:
            else_first = None
            else_tail = None
        join = self._state_index()
        branch_state.transition.target = then_first
        branch_state.transition.target_false = (
            else_first if else_first is not None else join
        )
        then_tail.transition.target = join
        if else_tail is not None:
            else_tail.transition.target = join

    def _compile_region(self, marker: RegionMarker) -> None:
        """Non-inlined call boundary: flush and burn handshake cycles."""
        self.regions += 1
        for _ in range(self.options.call_overhead):
            self._close(_Transition("goto", self._state_index() + 1))

    def _compile_for(self, stmt: ForStmt) -> None:
        directives = {p.directive for p in stmt.pragmas}
        if "UNROLL" in directives and self.options.enable_unroll_pragmas:
            self.compile_block(unroll_loop(stmt))
            return
        if "PIPELINE" in directives and self.options.enable_pipeline_pragmas:
            self._compile_pipelined_for(stmt)
            return
        self._compile_rolled_for(stmt)

    def _compile_rolled_for(self, stmt: ForStmt) -> None:
        start = const_value(stmt.start)
        bound = const_value(stmt.bound)
        self._declare_var(stmt.var, INT_W)
        self._schedule_assign(stmt.var, stmt.start)
        self._close(_Transition("goto", self._state_index() + 1))
        body_first = self._state_index()
        known_nonempty = start is not None and bound is not None and start < bound
        if not known_nonempty:
            # General form: a head state testing the condition.
            cond = self._bool(BinExpr("<", VarExpr(stmt.var), stmt.bound))
            head = self._close(_Transition("branch", cond=cond))
            body_first = self._state_index()
        self.compile_block(stmt.body)
        # Final cycle: increment once and loop back while the next value
        # satisfies the bound (evaluating the increment a second time would
        # double-step through the chained value).
        tail_cond: list[Expr] = []

        def tail_action() -> None:
            tail_cond.clear()
            inc = self._eval(BinExpr("+", VarExpr(stmt.var), NumExpr(stmt.step)))
            bound_expr = self._eval(stmt.bound)
            tail_cond.append(ops.lt(inc, bound_expr, signed=True))
            self._write_var(stmt.var, inc)

        self._try_in_cycle(tail_action)
        tail = self._close(_Transition("branch", cond=tail_cond[0], target=body_first))
        exit_idx = self._state_index()
        tail.transition.target_false = exit_idx
        if not known_nonempty:
            head.transition.target = body_first
            head.transition.target_false = exit_idx
        body_states = exit_idx - body_first
        trip = (bound - start + stmt.step - 1) // stmt.step if known_nonempty else None
        self.loop_info[f"for_{stmt.var}_{body_first}"] = {
            "kind": "rolled", "body_states": body_states, "trip": trip,
        }

    # -- pipelined loops -----------------------------------------------------
    def _compile_pipelined_for(self, stmt: ForStmt) -> None:
        from .pipeloop import compile_pipelined_loop

        compile_pipelined_loop(self, stmt)

    # ==================================================================
    # finalize
    # ==================================================================
    def build_fsm(self) -> None:
        """Generate the state register, write-back muxes, and port muxes."""
        n = len(self._states)
        width = max(1, (n - 1).bit_length())
        state_reg = self.module.reg("fsm_state", width)
        self._state_sig = state_reg

        def in_state(idx: int) -> Expr:
            return ops.eq(Ref(state_reg), ops.const(idx, width))

        self._in_state = in_state

        # Next-state logic: a log-depth select over per-state next values
        # (the case statement a real HLS FSM emits).
        per_state_next: list[Expr] = []
        for state in self._states:
            tr = state.transition
            if tr.kind == "goto":
                here: Expr = ops.const(
                    min(tr.target if tr.target is not None else state.index + 1,
                        n - 1), width)
            elif tr.kind == "branch":
                t = ops.const(min(tr.target or 0, n - 1), width)
                f = ops.const(min(tr.target_false if tr.target_false is not None
                                  else state.index + 1, n - 1), width)
                here = ops.mux(tr.cond, t, f)
            elif tr.kind == "wait":
                t = ops.const(min(tr.target or 0, n - 1), width)
                here = ops.mux(tr.cond, t, ops.const(state.index, width))
            elif tr.kind == "expr":
                here = ops.resize(tr.next_expr, width, signed=False)
            else:  # done
                here = ops.const(state.index, width)
            per_state_next.append(here)
        self.module.set_next(
            state_reg, ops.select(Ref(state_reg), per_state_next, signed=False)
        )

        # Variable write-back muxes.
        writers: dict[str, list[tuple[int, Expr | None, Expr]]] = {}
        for state in self._states:
            for var, expr in state.var_writes.items():
                writers.setdefault(var, []).append((state.index, state.gate, expr))
        for var, (reg, width_v) in self._vars.items():
            records = writers.get(var)
            if not records:
                self.module.set_next(reg, Ref(reg))
                continue
            value: Expr = Ref(reg)
            enable: Expr | None = None
            for idx, gate, expr in records:
                hit: Expr = self._in_state(idx)
                if gate is not None:
                    hit = ops.band(hit, gate)
                value = ops.mux(hit, expr, value)
                enable = hit if enable is None else ops.bor(enable, hit)
            self.module.set_next(reg, value, en=enable)

        # Memory read port muxes: per-state address select.
        for (name, slot), wire in self._read_wires.items():
            array = self._arrays[name]
            assert isinstance(array, _MemArray)
            by_state: dict[int, Expr] = {idx: a
                                         for idx, a in self._read_ports[name][slot]}
            table = [by_state.get(i, ops.const(0, INT_W)) for i in range(n)]
            addr = ops.select(Ref(state_reg), table, signed=False)
            self.module.assign(wire, MemRead(array.memory, addr))

        # Memory write port muxes.
        for name, slots in self._write_recs.items():
            array = self._arrays[name]
            assert isinstance(array, _MemArray)
            for slot_records in slots:
                if not slot_records:
                    continue
                en: Expr | None = None
                addr: Expr = ops.const(0, INT_W)
                data: Expr = ops.const(0, array.width)
                for idx, gate, a, d in slot_records:
                    hit: Expr = self._in_state(idx)
                    if gate is not None:
                        hit = ops.band(hit, gate)
                    en = hit if en is None else ops.bor(en, hit)
                    addr = ops.mux(hit, a, addr)
                    data = ops.mux(hit, d, data)
                self.module.mem_write(array.memory, en, addr, data)

        for finalize in self._pipe_finalizers:
            finalize()

    def states_matching(self, indices: list[int]) -> Expr:
        """OR of state hits (used by the interface generator)."""
        expr: Expr | None = None
        for idx in indices:
            hit = self._in_state(idx)
            expr = hit if expr is None else ops.bor(expr, hit)
        return expr if expr is not None else ops.const(0, 1)
