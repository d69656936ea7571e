"""The pluggable executor seam under :class:`ParallelSweepRunner`.

An :class:`Executor` takes the sweep's task list plus the shared payload
base and returns one entry per task, **in task order**:

* a worker output dict (the :func:`repro.exec.worker.run_task` shape) —
  the normal case;
* a ``{"crashed": n}`` sentinel — the task killed ``n`` workers (or let
  ``n`` leases expire) and was quarantined; the runner converts it into
  an honest ``FAILED(WorkerCrashError)`` cell;
* ``None`` — nothing ran (only possible for executors that skip work).

Executors own dispatch and supervision; the runner owns trace stamping,
the deterministic task-order merge, checkpointing, and quarantine
records.  Both executors hand the same wire sweep (:func:`sweep_payload`)
to a :class:`~repro.exec.broker.TaskBroker` — :class:`LocalExecutor`
to a private in-process one, :class:`repro.fabric.client.FabricExecutor`
to a remote master — whose ``expire`` alone decides whether a dead
worker's task re-queues or is quarantined, so "a worker died" means the
same thing whether the worker was a forked child or a machine across
the network.
"""

from __future__ import annotations

import functools
from dataclasses import asdict
from typing import Protocol, runtime_checkable

from ..core.errors import WorkerCrashError
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..resilience.supervise import (
    CrashBudget,
    default_crash_budget,
    supervise_fleet,
)
from .broker import TaskBroker
from .tasks import SweepTask
from . import worker as worker_mod

__all__ = ["Executor", "LocalExecutor", "DEFAULT_MAX_TASKS_PER_CHILD",
           "sweep_payload", "task_outputs"]

#: Tasks a local worker may serve before it exits and its slot re-forks.
#: Design builds memoize netlists and compiled simulators per process, so
#: a long-lived worker grows monotonically; recycling bounds its footprint
#: the way ``multiprocessing.Pool(maxtasksperchild=…)`` would.
DEFAULT_MAX_TASKS_PER_CHILD = 64


@runtime_checkable
class Executor(Protocol):
    """Dispatch a sweep's tasks somewhere; return outputs in task order."""

    #: Supervision counters the runner folds into its own stats after a
    #: run: ``worker_restarts`` (worker deaths / lease expiries).
    stats: dict

    def run(self, tasks: list[SweepTask], base: dict,
            context: "worker_mod.WorkerContext") -> list[dict | None]:
        """Measure every task; see the module docstring for the shape.

        Raises :class:`~repro.core.errors.WorkerCrashError` when the
        crash budget is exhausted.
        """
        ...  # pragma: no cover - protocol


def sweep_payload(tasks: list[SweepTask], base: dict) -> dict:
    """The wire sweep a :class:`~repro.exec.broker.TaskBroker` accepts."""
    return {
        "tasks": [task.to_record() for task in tasks],
        "config": asdict(base["config"]),
        "inject": sorted(base["inject"]),
        "skip": sorted(base["skip"]),
        "trace": bool(base["trace"]),
    }


def task_outputs(outcomes: list) -> list[dict | None]:
    """Broker outcomes (``{"output": …}`` / ``{"crashed": n}``) as
    :class:`Executor` results."""
    return [None if not isinstance(outcome, dict)
            else {"crashed": outcome["crashed"]} if outcome.get("crashed")
            else outcome.get("output") for outcome in outcomes]


class LocalExecutor:
    """``--jobs N``: a private broker piping one lease at a time to each
    of N forked workers.

    Local leases never expire by clock: the fleet sees a worker die and
    its lease is expired at once, so exactly the task that killed it is
    charged an attempt.  A worker is sent ``None`` (a clean exit) after
    ``max_tasks_per_child`` tasks, and its slot re-forks while tasks
    remain.
    """

    def __init__(self, jobs: int = 2,
                 max_tasks_per_child: int | None = DEFAULT_MAX_TASKS_PER_CHILD
                 ) -> None:
        self.jobs = max(1, int(jobs))
        self.max_tasks_per_child = (None if not max_tasks_per_child
                                    else max(1, int(max_tasks_per_child)))
        #: ``workers`` counts forked worker processes.
        self.stats = {"worker_restarts": 0, "workers": 0}

    def run(self, tasks: list[SweepTask], base: dict,
            context: "worker_mod.WorkerContext") -> list[dict | None]:
        broker = TaskBroker(lease_s=float("inf"), backoff_s=0.0)
        sweep = broker.submit(sweep_payload(tasks, base))
        running: dict[int, dict] = {}   # slot -> lease its worker measures
        served: dict[int, int] = {}     # slot -> tasks its worker served

        def take(slot: int) -> dict | None:
            leases = broker.lease(f"local-{slot}")
            return leases[0] if leases else None

        def send(slot: int, conn, lease: dict | None) -> None:
            if lease is not None:
                running[slot] = lease
            try:
                conn.send(lease)
            except BrokenPipeError:
                pass  # the worker died; its sentinel expires the lease

        def on_spawn(slot: int, conn) -> None:
            self.stats["workers"] += 1
            served[slot] = 0
            send(slot, conn, take(slot))

        def on_message(slot: int, conn, output: dict) -> None:
            lease = running.pop(slot)
            broker.result(lease["id"], f"local-{slot}", output)
            served[slot] += 1
            spent = (self.max_tasks_per_child is not None
                     and served[slot] >= self.max_tasks_per_child)
            send(slot, conn, None if spent else take(slot))

        def on_crash(slot: int) -> None:
            lost = running.pop(slot, None)
            lost_ids = ([] if lost is None else [worker_mod.task_id(
                tasks[broker.tasks[lost["id"]].index])])
            broker.expire(worker=f"local-{slot}")
            self.stats["worker_restarts"] += 1
            crashes = self.stats["worker_restarts"]
            obs_metrics.inc("exec.worker_restarts")
            obs_events.emit("worker.restart", crashes=crashes,
                            lost=len(lost_ids), tasks=lost_ids)

        def respawn(slot: int) -> bool:
            # A spent worker's slot re-forks while tasks wait for a lease.
            return (broker.status(sweep)["state"] == "running"
                    and broker.snapshot()["pending"] > 0)

        supervise_fleet(
            min(self.jobs, len(tasks)),
            functools.partial(worker_mod.serve_leases, context=context),
            CrashBudget(default_crash_budget(len(tasks))),
            on_spawn=on_spawn, on_message=on_message, on_crash=on_crash,
            respawn=respawn)
        info = broker.status(sweep)
        if info["state"] == "failed":
            raise WorkerCrashError(info["error"], phase="exec.supervise")
        return task_outputs(broker.results(sweep))
