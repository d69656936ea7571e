"""Shared supervision for crash-prone worker processes.

Two subsystems keep worker processes alive against SIGKILLs: the sweep
worker fleet (:func:`supervise_fleet`, behind both ``--jobs N`` and
``work --parallel N``) and the serve tier's pre-forked evaluator pool
(:class:`repro.serve.pool.WorkerPool`).  Both follow the same policy —
exponential backoff between respawns, capped per sleep, with a total
crash budget that turns "the environment is broken" into one honest
error instead of an infinite respawn loop — so the arithmetic lives
here, once.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait

from ..core.errors import WorkerCrashError

__all__ = ["CrashBudget", "POISON_ATTEMPTS", "backoff_delay",
           "default_crash_budget", "supervise_fleet"]

#: A task that has cost this many worker deaths (lease expiries) is
#: quarantined as a poison task instead of being handed to another worker.
POISON_ATTEMPTS = 2

#: Longest single backoff sleep, whatever the crash count (seconds).
BACKOFF_CAP_S = 1.0


def backoff_delay(crashes: int, base_s: float,
                  cap_s: float = BACKOFF_CAP_S) -> float:
    """Exponential backoff before the ``crashes``-th respawn.

    ``base_s * 2**(crashes - 1)``, capped at ``cap_s``; zero when
    ``base_s`` is zero (tests disable the sleeps) or nothing crashed yet.
    """
    if crashes <= 0 or base_s <= 0.0:
        return 0.0
    return min(base_s * 2 ** (crashes - 1), cap_s)


def default_crash_budget(tasks: int) -> int:
    """Total worker crashes a supervisor tolerates before aborting.

    Linear in the workload (every task may legitimately kill a worker
    :data:`POISON_ATTEMPTS` times) with headroom for startup flakes.
    """
    return 2 * max(0, int(tasks)) + 8


class CrashBudget:
    """Crash accounting: count deaths, hand out backoffs, cap the total.

    :meth:`note` is called once per observed worker death and returns the
    backoff the supervisor should sleep before respawning; the backoff
    grows with the deaths since the last :meth:`progress` (all of them,
    for an owner that never reports progress).  Once more than ``limit``
    deaths accumulate, :attr:`exhausted` turns true and the owner should
    stop respawning and fail honestly.
    """

    def __init__(self, limit: int | None, base_s: float = 0.05,
                 cap_s: float = BACKOFF_CAP_S) -> None:
        self.limit = limit
        self.base_s = max(0.0, float(base_s))
        self.cap_s = max(0.0, float(cap_s))
        self.crashes = 0
        self.streak = 0

    def note(self) -> float:
        """Record one crash; the backoff to sleep before respawning."""
        self.crashes += 1
        self.streak += 1
        return backoff_delay(self.streak, self.base_s, self.cap_s)

    def progress(self) -> None:
        """A worker got work done: the next death backs off from the base."""
        self.streak = 0

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.crashes > self.limit


def supervise_fleet(size: int, target, budget: CrashBudget, *,
                    on_spawn=None, on_message=None, on_crash=None,
                    respawn=None) -> None:
    """Fork ``size`` slots running ``target(slot, conn)``; keep them alive.

    ``conn`` is the child's end of a pipe.  The parent blocks on every
    pipe and process sentinel and calls ``on_spawn(slot, conn)`` after
    each fork and ``on_message(slot, conn, message)`` for each message
    (a :meth:`CrashBudget.progress`).  A child exiting non-zero calls
    ``on_crash(slot)`` and respawns after the ``budget`` backoff, or
    raises :class:`~repro.core.errors.WorkerCrashError` past the budget.
    A clean exit re-forks the slot if ``respawn(slot)`` is true, else
    retires it; the fleet returns once every slot has retired.
    """
    # Fork, not spawn: targets are closures, and workers inherit the
    # parent's design memos.
    mp = multiprocessing.get_context("fork")
    live: dict[int, tuple] = {}     # slot -> (process, parent pipe end)

    def spawn(slot: int) -> None:
        ours, theirs = mp.Pipe()
        proc = mp.Process(target=target, args=(slot, theirs), daemon=True)
        proc.start()
        theirs.close()
        live[slot] = (proc, ours)
        if on_spawn is not None:
            on_spawn(slot, ours)

    def reap(slot: int) -> None:
        proc, conn = live.pop(slot)
        proc.join()
        conn.close()
        if proc.exitcode == 0:
            if respawn is not None and respawn(slot):
                spawn(slot)
            return
        if on_crash is not None:
            on_crash(slot)
        delay = budget.note()
        if budget.exhausted:
            raise WorkerCrashError(
                f"sweep workers died {budget.crashes} times "
                f"(budget {budget.limit}); giving up",
                phase="exec.supervise")
        time.sleep(delay)
        spawn(slot)

    try:
        for slot in range(size):
            spawn(slot)
        while live:
            ready = wait([handle for proc, conn in live.values()
                          for handle in (proc.sentinel, conn)])
            for slot, (proc, conn) in list(live.items()):
                if conn in ready:
                    # A live child's pipe is readable only when it holds
                    # a message, so messages always precede the EOF.
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        reap(slot)
                        continue
                    budget.progress()
                    if on_message is not None:
                        on_message(slot, conn, message)
                elif proc.sentinel in ready:
                    reap(slot)
    finally:
        for proc, conn in live.values():
            proc.terminate()
        for proc, conn in live.values():
            proc.join(timeout=5.0)
            conn.close()
