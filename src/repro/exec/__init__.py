"""Sharded sweep execution (``--jobs N``).

Splits Table II / Figure 1 sweeps into per-design-point tasks, measures
them in forked worker processes leasing from an in-process
:class:`~repro.exec.broker.TaskBroker`, and replays the results
through the unchanged serial generators so rendered output stays
byte-identical to a serial run:

* :mod:`repro.exec.tasks`    — JSON-wire task coordinates;
* :mod:`repro.exec.broker`   — :class:`TaskBroker`, the lease ledger
  (also served over HTTP by a fabric master);
* :mod:`repro.exec.worker`   — worker-process entry points, the lease
  decoder, and the shared :class:`WorkerContext` bootstrap;
* :mod:`repro.exec.executor` — the pluggable :class:`Executor` seam and
  the forked-worker :class:`LocalExecutor`;
* :mod:`repro.exec.parallel` — :class:`ParallelSweepRunner`, the
  executor-backed :class:`~repro.resilience.runner.SweepRunner`.
"""

from .executor import DEFAULT_MAX_TASKS_PER_CHILD, Executor, LocalExecutor
from .parallel import ParallelSweepRunner
from .tasks import SweepTask, TaskSchemaError, fig1_tasks, table2_tasks
from .worker import WorkerContext

__all__ = ["ParallelSweepRunner", "SweepTask",
           "TaskSchemaError", "WorkerContext", "Executor", "LocalExecutor",
           "fig1_tasks", "table2_tasks", "DEFAULT_MAX_TASKS_PER_CHILD"]
