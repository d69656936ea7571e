"""The task ledger behind local ``--jobs N`` and the fabric HTTP surface.

:class:`TaskBroker` owns every sweep submitted for worker execution.  It
is deliberately passive — plain method calls from one thread, with an
injectable clock — so every transition is unit-testable without sockets
or sleeps:

* ``submit``    — a client posts a wire sweep (task records + policy);
* ``lease``     — a worker asks for up to N runnable tasks; each lease
  carries a deadline ``lease_s`` out;
* ``heartbeat`` — the worker extends a lease mid-run;
* ``result``    — the worker uploads the task's output (checkpoint
  record + obs buffers + artifact manifest);
* ``expire``    — a lease past its deadline (the server's periodic
  tick), or any lease of a worker seen to die, means the worker is dead.

``expire`` is the one place a worker death is judged: the task's
attempt counter bumps, the task re-queues after
:func:`~repro.resilience.supervise.backoff_delay`, and a task reaching
:data:`~repro.resilience.supervise.POISON_ATTEMPTS` expiries is
poisoned — reported to the client as a ``{"crashed": n}`` sentinel that
becomes an honest ``FAILED(WorkerCrashError)`` cell.  Total expiries per
sweep are bounded by
:func:`~repro.resilience.supervise.default_crash_budget`; past that the
sweep fails instead of spinning forever.

Results commit **at most once per task** (a late upload from a
presumed-dead worker is answered ``stale``), and the client folds them
in task order, so the byte-identity invariant survives any interleaving
of worker deaths and re-dispatches.

Each transition is reported to the optional ``notify`` hook (the serve
tier journals it and counts it in the ``fabric.*`` obs series).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..qos import WeightedFairQueue
from ..resilience.supervise import (
    POISON_ATTEMPTS,
    backoff_delay,
    default_crash_budget,
)
from .tasks import SweepTask

__all__ = ["TaskBroker"]


@dataclass
class _Task:
    """One design point's ledger entry."""

    id: str
    sweep: str
    index: int
    wire: dict                      # the SweepTask wire record
    attempt: int = 0
    state: str = "pending"          # pending | leased | done | poisoned
    worker: str | None = None
    deadline: float | None = None   # broker-clock lease deadline
    ready_at: float = 0.0           # earliest re-lease time (backoff)
    result: dict | None = None      # {"output": …} | {"crashed": n}
    seq: int = 0                    # fair-share queue position (stable)


@dataclass
class _Sweep:
    """One submitted sweep: shared policy plus its tasks."""

    id: str
    tasks: list[_Task]
    config: dict
    inject: list
    skip: list
    trace: bool
    budget: int
    state: str = "running"          # running | done | failed
    expiries: int = 0
    error: str | None = None
    tenant: str = "anon"            # owning tenant (from the API key)
    weight: int = 1                 # fair-share weight at lease time
    priority: int = 0               # within-tenant sweep priority


class TaskBroker:
    """Lease-based scheduler state for distributed sweeps."""

    def __init__(self, lease_s: float = 30.0, backoff_s: float = 0.05,
                 clock=time.monotonic, notify=None, cache=None) -> None:
        self.lease_s = max(0.1, float(lease_s))
        self.backoff_s = max(0.0, float(backoff_s))
        self.clock = clock
        self.notify = notify              # callable(event, **fields) | None
        self.cache = cache                # master ArtifactCache | None
        self.sweeps: dict[str, _Sweep] = {}
        self.tasks: dict[str, _Task] = {}
        self._seq = 0
        # Pending task ids, dequeued weighted-fair across tenants
        # (priority-ordered within a tenant) instead of plain FIFO.
        self._queue = WeightedFairQueue()

    # ------------------------------------------------------------------
    def _note(self, event: str, **fields) -> None:
        if self.notify is not None:
            self.notify(event, **fields)

    # ------------------------------------------------------------------
    def submit(self, payload: dict, tenant=None) -> str:
        """Accept a wire sweep; returns its id.

        ``tenant`` (a :class:`~repro.qos.Tenant`, resolved from the
        request's ``X-Api-Key``) owns the sweep for fair-share purposes;
        the payload's ``priority`` orders the tenant's own sweeps.

        Raises ``ValueError`` for a malformed body and
        :class:`~repro.exec.tasks.TaskSchemaError` for task records this
        build cannot interpret — both surface as HTTP 400.
        """
        records = payload.get("tasks")
        if not isinstance(records, list) or not records:
            raise ValueError("sweep needs a non-empty 'tasks' list")
        config = payload.get("config")
        if not isinstance(config, dict):
            raise ValueError("sweep needs a 'config' object")
        raw_priority = payload.get("priority", 0)
        if isinstance(raw_priority, bool) \
                or not isinstance(raw_priority, (int, type(None))):
            raise ValueError("'priority' must be an integer")
        priority = int(raw_priority or 0)
        for record in records:
            SweepTask.from_record(record)  # validate schema up front
        self._seq += 1
        sweep_id = f"s{self._seq}"
        tasks = [
            _Task(id=f"{sweep_id}-{index}", sweep=sweep_id, index=index,
                  wire=record)
            for index, record in enumerate(records)
        ]
        tenant_name = getattr(tenant, "name", None) or "anon"
        weight = max(1, int(getattr(tenant, "weight", 1) or 1))
        if not priority:
            priority = int(getattr(tenant, "priority", 0) or 0)
        sweep = _Sweep(
            id=sweep_id, tasks=tasks, config=config,
            inject=sorted(payload.get("inject") or []),
            skip=sorted(payload.get("skip") or []),
            trace=bool(payload.get("trace")),
            budget=default_crash_budget(len(tasks)),
            tenant=tenant_name, weight=weight, priority=priority)
        self.sweeps[sweep_id] = sweep
        for task in tasks:
            self.tasks[task.id] = task
            task.seq = self._queue.enqueue(tenant_name, task.id,
                                           weight=weight, priority=priority)
        self._note("fabric.submitted", id=sweep_id, tasks=len(tasks))
        return sweep_id

    # ------------------------------------------------------------------
    def lease(self, worker: str, limit: int = 1) -> list[dict]:
        """Hand ``worker`` up to ``limit`` runnable tasks.

        Dequeue order is weighted deficit round-robin across tenants
        (priority-ordered within each), so a saturating tenant cannot
        starve a light one of worker capacity.
        """
        now = self.clock()
        limit = max(1, int(limit))
        leases: list[dict] = []

        def ready(task_id: str) -> bool:
            return self.tasks[task_id].ready_at <= now

        while len(leases) < limit:
            task_id = self._queue.pop(ready=ready)
            if task_id is None:
                break
            task = self.tasks[task_id]
            sweep = self.sweeps[task.sweep]
            if task.state != "pending" or sweep.state != "running":
                # Stale queue entry (task re-leased elsewhere, or its
                # sweep already failed): drop it without charging the
                # worker's limit.
                continue
            task.state = "leased"
            task.worker = worker
            task.deadline = now + self.lease_s
            self._note("fabric.lease", id=task.id, worker=worker,
                       attempt=task.attempt)
            leases.append({
                "id": task.id, "deadline_s": self.lease_s,
                "attempt": task.attempt, "task": task.wire,
                "config": sweep.config, "inject": sweep.inject,
                "skip": sweep.skip, "trace": sweep.trace,
            })
        return leases

    def heartbeat(self, task_id: str, worker: str) -> dict | None:
        """Extend a live lease; ``None`` for unknown tasks, ``stale``
        (in the returned dict) when the lease is no longer this worker's."""
        task = self.tasks.get(task_id)
        if task is None:
            return None
        if task.state != "leased" or task.worker != worker:
            return {"stale": True}
        task.deadline = self.clock() + self.lease_s
        return {"stale": False, "deadline_s": self.lease_s}

    # ------------------------------------------------------------------
    def result(self, task_id: str, worker: str, output: dict,
               artifacts: list | None = None) -> dict | None:
        """Commit one task's output; at most one commit ever wins."""
        task = self.tasks.get(task_id)
        if task is None:
            return None
        if task.state != "leased" or task.worker != worker:
            # A presumed-dead worker finishing late, or a double upload:
            # the ledger already moved on, so this result must not land.
            return {"stale": True}
        task.state = "done"
        task.result = {"output": output}
        self._note("fabric.result", id=task_id, worker=worker)
        self._install_artifacts(artifacts or [])
        self._maybe_finish(self.sweeps[task.sweep])
        return {"stale": False}

    def _install_artifacts(self, manifest: list) -> None:
        """Copy uploaded blobs into the master's cache tree.

        Every entry was already verified against its SHA-256 address by
        the artifact endpoint; :meth:`ArtifactCache.install` sanitizes
        the relative path, and read-time checksum verification still
        guards the sealed content.
        """
        if self.cache is None:
            return
        for entry in manifest:
            if not isinstance(entry, dict):
                continue
            path, key = entry.get("path"), entry.get("key")
            if not isinstance(path, str) or not isinstance(key, str):
                continue
            blob = self.cache.get_blob(key)
            if blob is not None:
                self.cache.install(path, blob)

    # ------------------------------------------------------------------
    def expire(self, worker: str | None = None) -> int:
        """Re-queue or poison dead workers' leases; returns how many.

        A lease is dead once its deadline passes or, when ``worker`` is
        given, as soon as that worker holds it: the caller saw the
        worker die and need not wait out the deadline.
        """
        now = self.clock()
        expired = 0
        for task in self.tasks.values():
            if task.state != "leased":
                continue
            if worker is None:
                if task.deadline is None or task.deadline > now:
                    continue
            elif task.worker != worker:
                continue
            expired += 1
            sweep = self.sweeps[task.sweep]
            sweep.expiries += 1
            task.attempt += 1
            task.worker = None
            task.deadline = None
            # Two workers (or one worker, twice) died holding a poisoned
            # task: quarantine it instead of killing a third.
            poisoned = task.attempt >= POISON_ATTEMPTS
            self._note("fabric.expiry", id=task.id, attempt=task.attempt,
                       poisoned=poisoned)
            if poisoned:
                task.state = "poisoned"
                task.result = {"crashed": task.attempt}
            else:
                task.state = "pending"
                task.ready_at = now + backoff_delay(sweep.expiries,
                                                    self.backoff_s)
                # Re-enter the fair-share queue at the original seq so
                # the retry keeps its place within the tenant's line.
                self._queue.enqueue(sweep.tenant, task.id,
                                    weight=sweep.weight,
                                    priority=sweep.priority, seq=task.seq)
            if sweep.expiries > sweep.budget and sweep.state == "running":
                sweep.state = "failed"
                sweep.error = (
                    f"sweep lost {sweep.expiries} leases to dead workers "
                    f"(budget {sweep.budget}); aborting sweep")
                self._note("fabric.failed", id=sweep.id,
                           expiries=sweep.expiries)
            else:
                self._maybe_finish(sweep)
        return expired

    def _maybe_finish(self, sweep: _Sweep) -> None:
        if sweep.state != "running":
            return
        if all(task.state in ("done", "poisoned") for task in sweep.tasks):
            sweep.state = "done"
            self._note("fabric.done", id=sweep.id, expiries=sweep.expiries)

    # ------------------------------------------------------------------
    def status(self, sweep_id: str) -> dict | None:
        sweep = self.sweeps.get(sweep_id)
        if sweep is None:
            return None
        done = sum(1 for task in sweep.tasks
                   if task.state in ("done", "poisoned"))
        return {"id": sweep.id, "state": sweep.state,
                "total": len(sweep.tasks), "done": done,
                "expiries": sweep.expiries, "error": sweep.error}

    def results(self, sweep_id: str) -> list | None:
        """Per-task outcomes in task order, once the sweep is done."""
        sweep = self.sweeps.get(sweep_id)
        if sweep is None or sweep.state != "done":
            return None
        return [task.result for task in sweep.tasks]

    def snapshot(self) -> dict:
        """The ``fabric`` block of ``/healthz``."""
        leased = [task for task in self.tasks.values()
                  if task.state == "leased"]
        pending = sum(1 for task in self.tasks.values()
                      if task.state == "pending")
        return {
            "workers": sorted({task.worker for task in leased
                               if task.worker}),
            "leases": len(leased),
            "pending": pending,
            "sweeps": {state: sum(1 for s in self.sweeps.values()
                                  if s.state == state)
                       for state in ("running", "done", "failed")},
            "expiries": sum(s.expiries for s in self.sweeps.values()),
        }
