"""Wall-clock and simulation-cycle budgets for sandboxed design runs.

A :class:`Budget` is armed around a region of work with :func:`limit`; while
active, :meth:`Simulator.step <repro.sim.Simulator.step>` charges one cycle
per clock edge via :func:`charge`.  Exhausting either dimension raises
:class:`~repro.core.errors.BudgetExceeded`, which the sweep runner turns
into a ``FAILED(BudgetExceeded)`` cell instead of a dead sweep.

Costs when no budget is armed: one thread-local attribute read per charge
call, so unbudgeted simulation speed (and the obs disabled-overhead guard)
is unaffected.  The wall clock is only consulted every
:data:`WALL_CHECK_INTERVAL` cycles to keep ``time.monotonic`` off the hot
path.

The armed budget is **per thread**: the evaluation service
(:mod:`repro.serve`) arms request budgets from its executor threads, and a
budget armed for one request must never charge work running on another
thread.  Sweep processes are single-threaded, so for them this is
indistinguishable from a process-global.

This module deliberately sits below the rest of :mod:`repro.resilience`
(it imports only :mod:`repro.core.errors`) so the simulator can depend on
it without a cycle.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from ..core.errors import BudgetExceeded

__all__ = ["Budget", "limit", "active", "charge", "WALL_CHECK_INTERVAL"]

WALL_CHECK_INTERVAL = 256

_STATE = threading.local()


class Budget:
    """A consumable allowance of wall-clock seconds and simulation cycles."""

    __slots__ = ("wall_s", "max_cycles", "design", "phase",
                 "cycles", "_deadline", "_until_wall_check")

    def __init__(self, wall_s: float | None = None,
                 max_cycles: int | None = None,
                 design: str | None = None,
                 phase: str | None = None) -> None:
        self.wall_s = wall_s
        self.max_cycles = max_cycles
        self.design = design
        self.phase = phase
        self.cycles = 0
        self._deadline = None if wall_s is None else time.monotonic() + wall_s
        self._until_wall_check = WALL_CHECK_INTERVAL

    def charge(self, n: int = 1) -> None:
        """Consume ``n`` simulation cycles; raise when a limit is crossed."""
        self.cycles += n
        if self.max_cycles is not None and self.cycles > self.max_cycles:
            raise BudgetExceeded(
                f"simulation cycle budget exhausted "
                f"({self.cycles} > {self.max_cycles})",
                design=self.design, phase=self.phase,
                limit_cycles=self.max_cycles, cycles=self.cycles,
            )
        if self._deadline is not None:
            self._until_wall_check -= n
            if self._until_wall_check <= 0:
                self._until_wall_check = WALL_CHECK_INTERVAL
                self.check_wall()

    def check_wall(self) -> None:
        """Raise if the wall-clock deadline has passed (cheap to skip)."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(
                f"wall-clock budget exhausted ({self.wall_s:.3g}s)",
                design=self.design, phase=self.phase,
                limit_s=self.wall_s, cycles=self.cycles,
            )


def active() -> Budget | None:
    """The budget currently armed for this thread, if any."""
    return getattr(_STATE, "budget", None)


def charge(n: int = 1) -> None:
    """Charge the active budget (no-op — one local read — when unarmed)."""
    budget = getattr(_STATE, "budget", None)
    if budget is not None:
        budget.charge(n)


@contextmanager
def limit(budget: Budget | None):
    """Arm ``budget`` for the enclosed region (nestable; inner wins)."""
    previous = getattr(_STATE, "budget", None)
    _STATE.budget = budget if budget is not None else previous
    try:
        yield budget
    finally:
        _STATE.budget = previous
