"""Sandboxed per-design measurement with budgets, retries, and checkpoints.

:class:`SweepRunner` is the containment boundary between one design point
and the rest of a sweep: it arms a wall-clock/cycle :class:`~.budget.Budget`
around :func:`~repro.eval.measure.measure_design`, applies the retry policy
(retry once with the same configuration, then once more with a degraded
configuration, then record the failure), and persists every outcome to an
optional JSONL :class:`~.checkpoint.Checkpoint` so an interrupted sweep
resumes where it stopped.

A failure never escapes :meth:`SweepRunner.measure` — the sweep gets a
:class:`DesignResult` with ``status="failed"`` and a structured error
record instead, which the Table II / Fig. 1 renderers show as
``FAILED(<reason>)`` cells.  The only deliberate exceptions are
:class:`~repro.core.errors.SweepInterrupted` (the kill/resume hook) and
``KeyboardInterrupt`` (the user's ^C), which both leave the checkpoint
consistent.

All failure/retry/budget events flow through ``repro.obs`` counters
(``resilience.*``) and a ``resilience.run`` span per attempt.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..core.errors import (
    BudgetExceeded,
    ReproError,
    ScheduleError,
    SweepInterrupted,
    SweepPreempted,
)
from ..eval.measure import Measured, measure_design
from ..frontends.base import Design, Recipe
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import budget as res_budget
from .checkpoint import Checkpoint, make_record
from .errors import failure_record, failure_reason

__all__ = ["RunnerConfig", "DesignResult", "SweepRunner", "ABORT_ENV",
           "result_to_record", "result_from_record"]

# After this many freshly measured designs the runner raises
# SweepInterrupted — a deterministic stand-in for kill -9 used by the
# checkpoint/resume tests and the scripts/check.sh smoke.
ABORT_ENV = "REPRO_ABORT_AFTER"


@dataclass(frozen=True)
class RunnerConfig:
    """Policy knobs for one sweep."""

    wall_s: float | None = None       # per-design wall-clock budget
    max_cycles: int | None = None     # per-design simulation-cycle budget
    retries: int = 1                  # same-config retries after attempt 1
    degrade: bool = True              # add a final degraded-config attempt
    n_matrices: int = 4               # streamed matrices per measurement
    engine: str = "compiled"          # simulator engine for normal attempts

    def degraded_kwargs(self) -> dict:
        """The degraded final attempt: reference engine, shorter stream."""
        return {"n_matrices": max(2, self.n_matrices - 1),
                "engine": "interp", "use_cache": False}


@dataclass
class DesignResult:
    """Outcome of one contained design measurement."""

    name: str
    status: str                        # "ok" | "failed"
    measured: Measured | None = None
    error: dict | None = None
    attempts: int = 1
    degraded: bool = False
    from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def reason(self) -> str:
        """Short ``FAILED(…)`` reason for table/figure cells."""
        return failure_reason(self.error or {})


def result_to_record(result: DesignResult) -> dict:
    """Serialize a :class:`DesignResult` in the checkpoint record shape.

    The same JSON schema backs the on-disk checkpoint and the byte stream
    a sharded-sweep worker ships its results over, so both round-trip
    measurements exactly (floats serialize via ``repr``).
    """
    return make_record(result.name, status=result.status,
                       measured=result.measured, error=result.error,
                       attempts=result.attempts, degraded=result.degraded)


def result_from_record(record: dict, *,
                       from_checkpoint: bool = False) -> DesignResult:
    """Rebuild a :class:`DesignResult` from its record form."""
    measured = record.get("measured")
    return DesignResult(
        name=record["design"],
        status=record["status"],
        measured=None if measured is None else Measured.from_dict(measured),
        error=record.get("error"),
        attempts=record.get("attempts", 1),
        degraded=record.get("degraded", False),
        from_checkpoint=from_checkpoint,
    )


class SweepRunner:
    """Runs design measurements with failure containment for a whole sweep."""

    def __init__(
        self,
        config: RunnerConfig | None = None,
        checkpoint: Checkpoint | None = None,
        inject_failures: set[str] | frozenset[str] | tuple = (),
        abort_after: int | None = None,
        measure_fn=None,
        preempt=None,
    ) -> None:
        self.config = config or RunnerConfig()
        self.checkpoint = checkpoint
        self.inject_failures = frozenset(inject_failures)
        if abort_after is None:
            abort_after = int(os.environ.get(ABORT_ENV, "0")) or None
        self.abort_after = abort_after
        #: QoS preemption hook: a callable polled at every cell boundary
        #: (after the checkpoint record is durable).  Returning true
        #: raises :class:`SweepPreempted` so the scheduler can pause and
        #: later resume the sweep byte-identically.
        self.preempt = preempt
        self._measure = measure_fn or measure_design
        self._fresh_completed = 0
        self.stats = {"ok": 0, "failed": 0, "retries": 0, "degraded_runs": 0,
                      "checkpoint_hits": 0}

    # ------------------------------------------------------------------
    def measure(self, design: Design | Recipe) -> DesignResult:
        """Measure a built design or a recipe under the runner's policy;
        never raises on per-design failure (see module docstring for the
        exceptions)."""
        cached = self._from_checkpoint(design.name)
        if cached is not None:
            return cached
        return self.commit(self._measure_with_retries(design))

    def commit(self, result: DesignResult) -> DesignResult:
        """Record a freshly produced result: checkpoint, stats, obs, and
        the deterministic-abort hook.  Called by :meth:`measure` for every
        non-checkpoint result; the sharded executor calls it directly when
        adopting worker results, so parallel sweeps share the exact same
        bookkeeping (and checkpoint write order) as serial ones."""
        if self.checkpoint is not None:
            self.checkpoint.record(
                result.name, status=result.status, measured=result.measured,
                error=result.error, attempts=result.attempts,
                degraded=result.degraded,
            )
        self.stats["ok" if result.ok else "failed"] += 1
        obs_events.emit("cell.done", design=result.name,
                        status=result.status, attempts=result.attempts,
                        degraded=result.degraded)
        if not result.ok:
            obs_metrics.inc("resilience.failures")
            obs_trace.event("resilience.failed", design=result.name,
                            reason=result.reason, attempts=result.attempts)
        self._fresh_completed += 1
        if self.preempt is not None and self.preempt():
            # The boundary cell is already checkpointed, so the resumed
            # run replays it (and everything before it) verbatim.
            raise SweepPreempted(
                f"sweep preempted after {self._fresh_completed} fresh "
                f"designs; checkpoint is consistent",
                design=result.name, phase="sweep",
            )
        if self.abort_after is not None and self._fresh_completed >= self.abort_after:
            raise SweepInterrupted(
                f"sweep aborted after {self._fresh_completed} designs "
                f"({ABORT_ENV}); checkpoint is consistent",
                design=result.name, phase="sweep",
            )
        return result

    # ------------------------------------------------------------------
    def _from_checkpoint(self, name: str) -> DesignResult | None:
        if self.checkpoint is None:
            return None
        record = self.checkpoint.get(name)
        if record is None:
            return None
        self.stats["checkpoint_hits"] += 1
        obs_metrics.inc("resilience.checkpoint_hits")
        obs_trace.event("resilience.checkpoint_hit", design=name)
        return result_from_record(record, from_checkpoint=True)

    def _attempt_plan(self) -> list[bool]:
        """Per-attempt degraded flags: normal, retries…, degraded final."""
        plan = [False] * (1 + max(0, self.config.retries))
        if self.config.degrade:
            plan.append(True)
        return plan

    def _measure_with_retries(self, design: Design | Recipe) -> DesignResult:
        config = self.config
        plan = self._attempt_plan()
        if isinstance(design, Recipe):
            design = design.once()  # retries reuse one build
        last_error: dict | None = None
        for attempt, degraded in enumerate(plan, start=1):
            if attempt > 1:
                self.stats["retries"] += 1
                obs_metrics.inc("resilience.retries")
                obs_events.emit("cell.retry", design=design.name,
                                attempt=attempt)
            if degraded:
                self.stats["degraded_runs"] += 1
                obs_metrics.inc("resilience.degraded_runs")
                obs_events.emit("cell.degrade", design=design.name,
                                attempt=attempt)
            try:
                measured = self._attempt(design, degraded)
            except (SweepInterrupted, KeyboardInterrupt):
                raise
            except ReproError as exc:
                last_error = failure_record(exc, design=design.name,
                                            phase=exc.phase or "measure")
                obs_trace.event("resilience.attempt_failed",
                                design=design.name, attempt=attempt,
                                degraded=degraded,
                                error=last_error["type"])
                if isinstance(exc, BudgetExceeded):
                    obs_metrics.inc("resilience.budget_exceeded")
                if last_error["phase"] == "frontend.build":
                    # A point that cannot be built fails the same way on
                    # every attempt: record it without retrying.
                    return DesignResult(name=design.name, status="failed",
                                        error=last_error, attempts=attempt,
                                        degraded=degraded)
                continue
            return DesignResult(name=design.name, status="ok",
                                measured=measured, attempts=attempt,
                                degraded=degraded)
        return DesignResult(name=design.name, status="failed",
                            error=last_error, attempts=len(plan),
                            degraded=config.degrade)

    def _attempt(self, design: Design | Recipe, degraded: bool) -> Measured:
        config = self.config
        if design.name in self.inject_failures:
            raise ScheduleError("injected fault (forced sweep failure)",
                                design=design.name, phase="injected")
        kwargs = (config.degraded_kwargs() if degraded
                  else {"n_matrices": config.n_matrices,
                        "engine": config.engine})
        budget = res_budget.Budget(
            wall_s=config.wall_s, max_cycles=config.max_cycles,
            design=design.name, phase="measure",
        )
        obs_events.emit("phase.start", phase="measure", design=design.name,
                        degraded=degraded)
        status = "error"
        try:
            with obs_trace.span("resilience.run", design=design.name,
                                degraded=degraded):
                with res_budget.limit(budget):
                    measured = self._measure(design, **kwargs)
                budget.check_wall()
            status = "ok"
        finally:
            obs_events.emit("phase.end", phase="measure",
                            design=design.name, status=status)
        return measured
