"""BSV-like guarded atomic rules: language and scheduler.

A :class:`RulesModule` is a set of registers plus *rules* — atomic guarded
actions with one-rule-at-a-time semantics.  The compiler (playing BSC's
role) schedules as many non-conflicting rules as possible into each clock
cycle:

* two rules **conflict** when they write the same register (exact mode) or
  additionally when one writes a register the other reads (pessimistic
  mode, one of the scheduler knobs the paper's 26-configuration BSC sweep
  varies);
* among conflicting ready rules, the earlier-declared one fires
  (descending urgency);
* every firing rule reads pre-cycle state — the atomicity guarantee.

``will_fire`` logic, write-back priority muxes, and the conflict matrix
are all generated into ordinary RTL, so the scheduled design simulates
and synthesizes like any other module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...core.errors import FrontendError
from ...rtl import Module, ops
from ...rtl.ir import Expr, Ref, Signal, expr_signals
from ..hc.dsl import Sig, lit

__all__ = ["RulesModule", "Rule", "SchedulerOptions", "Schedule"]


@dataclass(frozen=True)
class SchedulerOptions:
    """Compiler knobs (the BSC command-line options of the paper's sweep).

    ``urgency_seed`` permutes declaration order among *non-conflicting*
    rules (behaviour-preserving; perturbs the generated logic slightly);
    ``conflict_mode`` selects exact write-write analysis or the
    pessimistic read/write variant (more serialization, never less
    correctness); ``lift_guards`` folds rule guards into write-enable
    terms instead of next-value muxes where possible.
    """

    urgency_seed: int = 0
    conflict_mode: str = "exact"  # "exact" | "pessimistic"
    lift_guards: bool = True

    def __post_init__(self) -> None:
        if self.conflict_mode not in ("exact", "pessimistic"):
            raise FrontendError(f"unknown conflict mode {self.conflict_mode!r}")


@dataclass(eq=False)
class Rule:
    """One guarded atomic action."""

    name: str
    guard: Expr | None
    writes: list[tuple[Signal, Expr]] = field(default_factory=list)

    def write_targets(self) -> set[Signal]:
        return {sig for sig, _expr in self.writes}

    def guard_reads(self) -> set[Signal]:
        if self.guard is None:
            return set()
        return expr_signals(self.guard)


@dataclass
class Schedule:
    """The compiler's scheduling result (inspected by tests and reports)."""

    order: list[str]
    conflicts: list[tuple[str, str]]
    will_fire: dict[str, Signal] = field(default_factory=dict)

    def conflict_free(self, a: str, b: str) -> bool:
        return (a, b) not in self.conflicts and (b, a) not in self.conflicts


class _RuleBuilder:
    """Accumulates one rule's actions."""

    def __init__(self, module: "RulesModule", rule: Rule) -> None:
        self._module = module
        self._rule = rule

    def write(self, reg: Sig, value: Sig | int) -> "_RuleBuilder":
        """Schedule ``reg := value`` when this rule fires."""
        if not isinstance(reg.expr, Ref):
            raise FrontendError("rule writes must target registers")
        target = reg.expr.signal
        if target not in self._module._regs:
            raise FrontendError(f"{target.name} is not a register of this module")
        if target in self._rule.write_targets():
            raise FrontendError(
                f"rule {self._rule.name!r} writes {target.name!r} twice "
                f"(atomic actions have no intra-rule sequencing)"
            )
        if isinstance(value, int):
            value = lit(value, target.width, signed=reg.signed)
        self._rule.writes.append((target, ops.resize(value.expr, target.width,
                                                     signed=value.signed)))
        return self


class RulesModule:
    """A module described as registers plus guarded atomic rules."""

    def __init__(self, name: str) -> None:
        self.module = Module(name)
        self._regs: dict[Signal, int] = {}  # signal -> init
        self._rules: list[Rule] = []
        self._compiled = False

    # -- state and ports -------------------------------------------------
    def input(self, name: str, width: int, signed: bool = False) -> Sig:
        return Sig(Ref(self.module.input(name, width)), signed)

    def output(self, name: str, value: Sig, width: int | None = None) -> None:
        """A combinational value method (always-enabled read interface)."""
        width = width if width is not None else value.width
        port = self.module.output(name, width)
        self.module.assign(port, ops.resize(value.expr, width, signed=value.signed))

    def reg(self, name: str, width: int, init: int = 0, signed: bool = True) -> Sig:
        sig = self.module.reg(name, width, init=init)
        self._regs[sig] = init
        return Sig(Ref(sig), signed)

    def rule(self, name: str, guard: Sig | None = None) -> _RuleBuilder:
        """Declare a rule; earlier rules are more urgent."""
        guard_expr = None if guard is None else guard.expr
        rule = Rule(name=name, guard=guard_expr)
        self._rules.append(rule)
        return _RuleBuilder(self, rule)

    # -- scheduling -------------------------------------------------------
    def _conflicts(self, a: Rule, b: Rule, options: SchedulerOptions) -> bool:
        if a.write_targets() & b.write_targets():
            return True
        if options.conflict_mode == "pessimistic":
            # Guard-read vs write overlap also serializes (the conservative
            # urgency analysis older BSC versions apply).
            if a.write_targets() & b.guard_reads():
                return True
            if b.write_targets() & a.guard_reads():
                return True
        return False

    def _urgency_order(self, options: SchedulerOptions) -> list[Rule]:
        """Permute rule order without reordering any conflicting pair."""
        order = list(self._rules)
        if options.urgency_seed == 0:
            return order
        # Deterministic bubble-pass permutation: swap adjacent
        # non-conflicting pairs selected by the seed.
        seed = options.urgency_seed
        for sweep in range(seed):
            index = (seed + sweep * 7) % max(1, len(order) - 1)
            a, b = order[index], order[index + 1]
            if not self._conflicts(a, b, options):
                order[index], order[index + 1] = b, a
        return order

    def compile(self, options: SchedulerOptions | None = None) -> tuple[Module, Schedule]:
        """Schedule the rules and generate the will-fire/write-back logic."""
        if self._compiled:
            raise FrontendError("a RulesModule can only be compiled once")
        self._compiled = True
        options = options or SchedulerOptions()
        order = self._urgency_order(options)

        conflicts: list[tuple[str, str]] = []
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                if self._conflicts(a, b, options):
                    conflicts.append((a.name, b.name))

        # will_fire chain: a rule fires when ready and no more-urgent
        # conflicting rule fires this cycle.
        will_fire: dict[str, Signal] = {}
        fire_expr: dict[int, Expr] = {}
        for i, rule in enumerate(order):
            ready = rule.guard if rule.guard is not None else ops.const(1, 1)
            blockers = [
                fire_expr[j]
                for j in range(i)
                if self._conflicts(order[j], rule, options)
            ]
            expr = ready
            for blocker in blockers:
                expr = ops.band(expr, ops.bnot(blocker))
            wf = self.module.connect(f"WF_{rule.name}", 1, expr)
            will_fire[rule.name] = wf
            fire_expr[i] = Ref(wf)

        # Write-back: priority mux per register over the rules writing it.
        for reg_sig in self._regs:
            writers = [
                (fire_expr[i], expr)
                for i, rule in enumerate(order)
                for sig, expr in rule.writes
                if sig is reg_sig
            ]
            if not writers:
                self.module.set_next(reg_sig, Ref(reg_sig))
                continue
            if options.lift_guards:
                value: Expr = writers[-1][1]
                for wf, expr in reversed(writers[:-1]):
                    value = ops.mux(wf, expr, value)
                enable: Expr = writers[0][0]
                for wf, _expr in writers[1:]:
                    enable = ops.bor(enable, wf)
                self.module.set_next(reg_sig, value, en=enable)
            else:
                value = Ref(reg_sig)
                for wf, expr in reversed(writers):
                    value = ops.mux(wf, expr, value)
                self.module.set_next(reg_sig, value)

        schedule = Schedule(
            order=[rule.name for rule in order],
            conflicts=conflicts,
            will_fire=will_fire,
        )
        return self.module, schedule
