"""``repro.fabric`` — pull-based distributed sweep execution.

The fabric splits a sweep across machines without giving up the repo's
core guarantee: rendered output is byte-identical to a clean serial run,
or honestly ``FAILED(…)`` — never silently wrong.

* :class:`TaskBroker` (from :mod:`repro.exec.broker`) — the lease
  ledger the serve tier exposes over HTTP (sweeps in, leases out,
  results back, deadline-driven re-queue);
* :mod:`repro.fabric.client` — :class:`FabricClient` (the thin HTTP
  wire) and :class:`FabricExecutor`, the
  :class:`repro.exec.executor.Executor` implementation that routes a
  :class:`~repro.exec.parallel.ParallelSweepRunner` sweep through a
  remote master;
* :mod:`repro.fabric.worker` — the ``python -m repro work`` pull-worker
  loop: lease → run via :func:`repro.exec.worker.run_task` → upload
  artifacts + result → repeat.

Crash safety is one model for local and remote workers: a dead worker's
lease expires through :meth:`TaskBroker.expire` (for a remote worker,
when its heartbeats stop and the deadline passes), the task re-queues
with exponential backoff under a crash budget, and a task whose lease
expires twice is quarantined as a ``FAILED(WorkerCrashError)`` cell.
"""

from ..exec.broker import TaskBroker
from .client import FabricClient, FabricExecutor
from .worker import run_worker, run_worker_fleet

__all__ = ["TaskBroker", "FabricClient", "FabricExecutor",
           "run_worker", "run_worker_fleet"]
