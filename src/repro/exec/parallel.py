"""Sharded sweep execution: a multi-process front-end over ``SweepRunner``.

:class:`ParallelSweepRunner` splits a sweep into two phases:

1. **prefetch** — the task list is dispatched to worker processes by an
   :class:`~repro.exec.executor.Executor`; each worker builds and
   measures its design point under the sweep's normal
   :class:`~repro.resilience.runner` policy (budgets, retries, degraded
   final attempt, fault injection) and ships back a checkpoint-schema
   record plus its obs buffers.  Worker outputs are merged **in task
   order**, not completion order, so traces, metrics, and cache stats
   are deterministic.
2. **consume** — the unchanged serial generators
   (:func:`~repro.eval.experiments.generate_table2` /
   :func:`~repro.eval.experiments.generate_fig1`) run as usual, but
   every ``measure`` call is satisfied from the prefetched records
   instead of re-simulating, so the parent builds no Figure 1 recipe.
   Because records round-trip measurements exactly (the same JSON float
   guarantee the resume path relies on), rendered stdout is
   byte-identical to a serial run.

Checkpointing, resume, stats, and the deterministic
``REPRO_ABORT_AFTER`` interrupt all live in the consume phase via the
inherited :meth:`SweepRunner.commit` bookkeeping, so an interrupted
parallel sweep leaves the same checkpoint prefix a serial one would,
and a resumed parallel sweep skips re-measuring checkpointed designs.

**Worker supervision.**  A worker process dying (SIGKILL, segfault, OOM
kill — or a :class:`~repro.chaos.ChaosPolicy` drill) is charged to
exactly the task whose lease it held: the task re-queues for another
worker (``exec.worker_restarts`` counted), and a task that has killed
two workers is quarantined as a
``FAILED(WorkerCrashError)`` cell instead of aborting the sweep.
Quarantined records use the normal checkpoint schema and the merge stays
in task order, so stdout remains byte-identical to a serial run for
every surviving point and resume semantics are unchanged.
"""

from __future__ import annotations

from dataclasses import replace

from .. import chaos as chaos_mod
from .. import obs
from ..cache import ArtifactCache
from ..core.errors import WorkerCrashError
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resilience.checkpoint import make_record
from ..resilience.errors import failure_record
from ..resilience.runner import DesignResult, SweepRunner, result_from_record
from .executor import DEFAULT_MAX_TASKS_PER_CHILD, LocalExecutor
from .tasks import SweepTask
from .worker import WorkerContext
from . import worker as worker_mod

__all__ = ["ParallelSweepRunner", "DEFAULT_MAX_TASKS_PER_CHILD"]


class ParallelSweepRunner(SweepRunner):
    """A :class:`SweepRunner` that prefetches results across processes."""

    def __init__(self, tasks: list[SweepTask] | tuple = (), jobs: int = 2,
                 cache: ArtifactCache | None = None,
                 max_tasks_per_child: int | None = DEFAULT_MAX_TASKS_PER_CHILD,
                 executor=None,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.tasks = list(tasks)
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.max_tasks_per_child = max_tasks_per_child
        #: Injected :class:`~repro.exec.executor.Executor`; ``None``
        #: builds the default :class:`LocalExecutor` lazily in
        #: :meth:`prefetch` (a fabric executor dispatches even with
        #: ``jobs == 1`` — parallelism lives in the remote workers).
        self._executor = executor
        self.stats.update({"worker_restarts": 0, "poisoned": 0})
        self._prefetched: dict[str, dict] = {}
        self._prefetch_done = False

    # ------------------------------------------------------------------
    def prefetch(self) -> int:
        """Measure every task; returns the prefetched count.

        A dead worker does not abort the sweep: its task re-queues, and a
        task that keeps killing workers is quarantined (see the module
        docstring).  Worker deaths are bounded by ``2 * tasks + 8``;
        past that the sweep fails honestly with
        :class:`~repro.core.errors.WorkerCrashError`.
        """
        if self._prefetch_done:
            return len(self._prefetched)
        self._prefetch_done = True
        if not self.tasks or (self.jobs <= 1 and self._executor is None):
            return 0
        executor = self._executor
        if executor is None:
            executor = LocalExecutor(
                jobs=self.jobs,
                max_tasks_per_child=self.max_tasks_per_child)
        trace_on = obs_trace.enabled()
        if trace_on and not obs_trace.TRACER.trace_id:
            obs_trace.new_trace()
        with obs_trace.span("exec.prefetch", tasks=len(self.tasks),
                            jobs=self.jobs) as prefetch_span:
            graft = getattr(prefetch_span, "span_id", None)
            if trace_on:
                # Stamp every task with this sweep's trace context so
                # worker spans adopt the trace id; their subtrees graft
                # under this span at merge time.
                ctx = obs_trace.current_context()
                self.tasks = [replace(task, ctx=(ctx.trace_id, ctx.span_id))
                              for task in self.tasks]
            skip = (frozenset(self.checkpoint.names())
                    if self.checkpoint else ())
            base = {"config": self.config, "inject": self.inject_failures,
                    "trace": trace_on, "skip": skip}
            cache_dir = self.cache.root if self.cache is not None else None
            context = WorkerContext(cache_dir=cache_dir, trace=trace_on,
                                    chaos=chaos_mod.active())
            results = executor.run(self.tasks, base, context)
            self.stats["worker_restarts"] += executor.stats.get(
                "worker_restarts", 0)
            for i, res in enumerate(results):
                if res is not None and res.get("crashed"):
                    # The executor gave up on this task (it killed two
                    # workers): quarantine it as an honest FAILED(…) cell.
                    self._quarantine(i, res["crashed"])
                    results[i] = None
            self._merge(results, under=graft)
            obs_trace.event("exec.prefetch_done", tasks=len(self.tasks),
                            jobs=self.jobs,
                            worker_restarts=self.stats["worker_restarts"],
                            poisoned=self.stats["poisoned"])
        return len(self._prefetched)

    def _quarantine(self, index: int, crashes: int) -> None:
        """Record a poison task as an honest ``FAILED(…)`` design point."""
        task = self.tasks[index]
        self.stats["poisoned"] += 1
        obs_metrics.inc("exec.poisoned_tasks")
        obs_trace.event("exec.task_quarantined", kind=task.kind,
                        key=task.key, index=task.index, crashes=crashes)
        obs_events.emit("worker.poison", task=worker_mod.task_id(task),
                        crashes=crashes)
        name = task.recipe().name
        error = failure_record(WorkerCrashError(
            f"worker process died {crashes} times running this design "
            f"point; quarantined", design=name, phase="exec.worker",
            task=worker_mod.task_id(task)))
        self._prefetched[name] = make_record(
            name, status="failed", error=error, attempts=crashes)

    def _merge(self, results: list[dict | None],
               under: int | None = None) -> None:
        """Fold worker outputs in task order (deterministic by design)."""
        for res in results:
            if res is None:
                continue
            obs.ingest(res, under=under)
            if self.cache is not None and res["cache"]:
                self.cache.merge_stats(res["cache"])
            if res["stats"]:
                self.stats["retries"] += res["stats"]["retries"]
                self.stats["degraded_runs"] += res["stats"]["degraded_runs"]
            if not res["skipped"] and res["record"] and res["name"]:
                self._prefetched[res["name"]] = res["record"]

    # ------------------------------------------------------------------
    def _measure_with_retries(self, design) -> DesignResult:
        """Satisfy a measure from the prefetch map; fall back to inline."""
        record = self._prefetched.pop(design.name, None)
        if record is None:
            return super()._measure_with_retries(design)
        return result_from_record(record)
