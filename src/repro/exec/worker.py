"""Worker-process side of the sharded sweep executor.

A worker decodes a broker lease (:func:`lease_payload`), looks up the
recipe its :class:`~repro.exec.tasks.SweepTask` addresses, measures it
through a private
:class:`~repro.resilience.runner.SweepRunner` carrying the sweep's
budget/retry policy, and ships the outcome back as plain dicts:

* the result in the checkpoint record schema (exact float round-trip,
  the same guarantee the resume path relies on);
* its obs span buffer and metrics snapshot (when tracing is on) for the
  parent's deterministic task-order merge;
* its artifact-cache stats delta.

A recipe is built only when the artifact cache misses, so a warm sweep
builds nothing.  Workers never checkpoint and never abort: the parent
owns the checkpoint (written in serial consume order) and the
deterministic ``REPRO_ABORT_AFTER`` hook, which is why
:meth:`WorkerContext.apply` drops that variable from the worker's
environment.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

from .. import cache as cache_mod
from .. import chaos as chaos_mod
from .. import obs
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resilience.runner import (
    ABORT_ENV,
    RunnerConfig,
    SweepRunner,
    result_to_record,
)
from .tasks import SweepTask

__all__ = ["WorkerContext", "lease_payload", "run_task", "serve_leases",
           "task_id"]


@dataclass(frozen=True)
class WorkerContext:
    """The per-process bootstrap every worker flavor shares.

    Local sweep workers (``exec.executor``), serve evaluator workers
    (``serve.pool``), and fabric pull-workers (``fabric.worker``) all
    start from the same three decisions — which artifact cache to use,
    whether tracing is on, which chaos policy applies — plus the
    invariant that a worker never inherits the parent's deterministic
    abort hook.  Centralizing them here keeps the three flavors from
    drifting.
    """

    cache_dir: str | None = None
    trace: bool = False
    chaos: object | None = None

    def apply(self) -> None:
        """Install this context into the current process."""
        os.environ.pop(ABORT_ENV, None)
        # Explicitly (re)set cache and chaos: a forked worker inherits
        # the parent's active handles, which must not leak into a clean
        # worker.
        cache_mod.set_active(
            cache_mod.ArtifactCache(self.cache_dir) if self.cache_dir
            else None)
        chaos_mod.set_active(self.chaos)
        if self.trace:
            obs.enable()
        else:
            # A forked worker inherits the parent's enabled flag/buffers.
            obs.disable()
        obs.clear()


def task_id(task: SweepTask) -> str:
    """The stable ``kind:key:index`` id chaos selectors match against."""
    return f"{task.kind}:{task.key}:{task.index}"


def lease_payload(lease: dict) -> dict:
    """A broker lease in the :func:`run_task` payload shape."""
    return {
        "task": lease["task"],
        "config": RunnerConfig(**(lease.get("config") or {})),
        "inject": tuple(lease.get("inject") or ()),
        "skip": frozenset(lease.get("skip") or ()),
        "trace": bool(lease.get("trace")),
        "attempt": int(lease.get("attempt") or 0),
    }


def serve_leases(slot: int, conn, context: WorkerContext) -> None:
    """A local sweep worker: run each lease the parent pipes in.

    Replies with each lease's :func:`run_task` output and returns (a
    clean exit) when the parent sends ``None``.
    """
    context.apply()
    while (lease := conn.recv()) is not None:
        conn.send(run_task(lease_payload(lease)))


def run_task(payload: dict) -> dict:
    """Look up and measure one task; never raises ``ReproError``.

    ``payload`` carries ``task`` (a :class:`SweepTask` wire record, see
    :meth:`SweepTask.to_record`), ``config`` (the sweep's
    :class:`~repro.resilience.runner.RunnerConfig`), ``inject``
    (forced-failure design names), ``skip`` (names already checkpointed,
    not re-measured), and ``trace``.
    """
    task = payload["task"]
    if isinstance(task, dict):
        task = SweepTask.from_record(task)
    policy = chaos_mod.active()
    if (policy is not None
            and policy.should_kill(task_id(task), payload.get("attempt", 0))):
        # Chaos drill: die the way a segfault/OOM-kill would — no Python
        # unwinding, no result — so the parent's supervision is exercised
        # against a real worker death.
        os.kill(os.getpid(), signal.SIGKILL)
    trace_on = bool(payload.get("trace"))
    if trace_on:
        obs.clear()
        obs.enable()
        if task.ctx:
            # Adopt the parent's trace: every span/event this worker
            # records carries the sweep's trace id, and the shipped
            # buffer grafts under the parent's dispatch span on ingest.
            obs_trace.new_trace(task.ctx[0])
    cache = cache_mod.active()
    cache_before = dict(cache.stats) if cache is not None else None
    out = {
        "kind": task.kind, "key": task.key, "index": task.index,
        "name": None, "record": None, "skipped": False,
        "stats": None, "spans": [], "metrics": None, "cache": None,
        "events": [],
    }
    try:
        with obs_trace.span("exec.task", task=task_id(task),
                            attempt=payload.get("attempt", 0)):
            recipe = task.recipe()
            out["name"] = recipe.name
            if recipe.name in payload.get("skip", ()):
                out["skipped"] = True
            else:
                runner = SweepRunner(
                    config=payload["config"],
                    inject_failures=payload.get("inject", ()),
                    abort_after=None,
                )
                result = runner._measure_with_retries(recipe)
                out["record"] = result_to_record(result)
                out["stats"] = {
                    "retries": runner.stats["retries"],
                    "degraded_runs": runner.stats["degraded_runs"],
                }
    finally:
        if trace_on:
            out["spans"] = [rec.to_dict() for rec in obs_trace.events()]
            out["events"] = obs_events.EVENTS.events()
            out["metrics"] = obs_metrics.snapshot()
            obs.clear()
        if cache is not None:
            out["cache"] = {key: cache.stats[key] - cache_before[key]
                            for key in cache.stats}
    return out
