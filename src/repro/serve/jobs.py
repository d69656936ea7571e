"""Asynchronous sweep jobs: ``POST /v1/jobs`` + ``GET /v1/jobs[/<id>]``.

A job runs one of the paper's sweep artifacts (``table2`` or ``fig1``)
through the server's :class:`~repro.api.Session` — inheriting its
``jobs``/cache/budget policy, so a service started with ``--jobs 4``
executes sweep jobs on the sharded
:class:`~repro.exec.ParallelSweepRunner` — and stores the rendered text
(exactly what the CLI would print) as the job result.

Jobs execute on a dedicated scheduler thread: one sweep at a time,
never blocking the event loop or the ``/v1/idct`` compute thread.  The
queue is bounded (:attr:`JobManager.max_queued`); past that, submission
reports overload and the server answers 429.

**Multi-tenant QoS.**  Every job belongs to a tenant (resolved from the
request's ``X-Api-Key`` by the server; anonymous by default) and carries
a ``priority``.  The scheduler dequeues across tenants with a
weighted deficit-round-robin :class:`~repro.qos.WeightedFairQueue` —
integer-only, deterministic, starvation-free — and orders one tenant's
jobs by descending priority.  Per-tenant ``max_jobs`` quotas raise
:class:`JobQuotaExceeded` (a 429 with ``Retry-After``).  Each job's
sweep runs on a *derived* session with a per-job JSONL checkpoint and a
preemption hook: when a strictly-higher-priority job arrives, the
running sweep raises
:class:`~repro.core.errors.SweepPreempted` at the next cell boundary,
the job re-queues (keeping its scheduler position), and its re-run
resumes from the checkpoint — stdout byte-identical to an uninterrupted
run, the PR 2 invariant now exercised by the scheduler itself.

**Durability.**  With a journal path configured, every lifecycle event is
appended to a JSONL write-ahead journal (``submitted`` → ``running`` →
``done``/``failed``, plus ``resumed``/``preempted``) and fsynced before
the in-memory state advances, so a SIGKILL'd server loses nothing it
acknowledged.  ``submitted`` records carry the job's tenant and
priority, so ``--resume-jobs`` restores both.  On restart the journal
is replayed: terminal jobs come back verbatim, non-terminal ones are
listed with the honest status ``interrupted`` (and an
``"interrupted": true`` marker that survives a later re-run), and —
with ``resume=True`` (``--resume-jobs``) — interrupted jobs are
re-submitted in id order.  A torn final line (the crash happened
mid-append) is dropped by the :mod:`repro.core.jsonl` log, never fatal.

**Eviction.**  Terminal (``done``/``failed``) jobs are pruned once more
than ``max_retained`` of them accumulate (oldest first), or once older
than ``ttl_s``; retained jobs keep a stable ``to_dict`` shape.  This
bounds the memory of a long-running service that previously kept every
completed sweep output forever.  Two guards keep eviction honest under
``--resume-jobs``: a job being re-run after a crash is exempt from the
sweep until its re-run reaches a terminal state (resumed jobs carry the
*lowest* ids, so the overflow rule would otherwise evict them first,
mid-resume), and every terminal transition — status, result, journal
record, ``finished_at`` — commits atomically under the manager lock so a
concurrent prune can never observe a "done" job whose journal record is
not yet durable.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..core import jsonl
from ..core.errors import SweepPreempted
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..qos import Keyring, Tenant, WeightedFairQueue

__all__ = ["Job", "JobManager", "JobQueueFull", "JobQuotaExceeded",
           "UnknownJobKind"]

#: Sweep parameters a job may set, per kind (anything else is a 400).
ALLOWED_PARAMS = {
    "table2": {"tools"},
    "fig1": {"full", "bsc_configs", "bambu_configs", "xls_stages"},
}

#: Job states that will never change again (and are eligible to evict).
TERMINAL_STATUSES = ("done", "failed")


class JobQueueFull(Exception):
    """Too many queued jobs; the server answers 429 (+ ``Retry-After``)."""

    retry_after = 1


class JobQuotaExceeded(JobQueueFull):
    """One tenant's concurrent-job quota is spent; 429 for that tenant
    only — other tenants keep submitting."""


class UnknownJobKind(Exception):
    """Job kind is not ``table2`` or ``fig1``; the server answers 400."""


@dataclass
class Job:
    """One submitted sweep and its lifecycle state."""

    id: str
    kind: str
    params: dict
    status: str = "queued"   # queued | running | done | failed | interrupted
    tenant: str = "anon"           # owning tenant (from the API key)
    priority: int = 0              # higher runs first within the tenant
    output: str | None = None
    error: str | None = None
    summary: list[str] = field(default_factory=list)
    interrupted: bool = False      # survived a server crash at some point
    preemptions: int = 0           # times paused for a higher priority
    finished_at: float | None = None
    trace: str | None = None       # trace id minted for this job's sweep
    events: list = field(default_factory=list)   # captured obs events
    seq: int = 0                   # fair-share queue position (stable)

    def to_dict(self) -> dict:
        payload = {"id": self.id, "kind": self.kind, "params": self.params,
                   "status": self.status, "tenant": self.tenant,
                   "priority": self.priority}
        if self.output is not None:
            payload["output"] = self.output
        if self.error is not None:
            payload["error"] = self.error
        if self.summary:
            payload["summary"] = self.summary
        if self.interrupted:
            payload["interrupted"] = True
        if self.preemptions:
            payload["preemptions"] = self.preemptions
        if self.trace:
            payload["trace"] = self.trace
        return payload


def _job_seq(job: Job) -> int:
    """Numeric submission order from a ``job-N`` id (journal replays)."""
    try:
        return int(job.id.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return 0


class JobManager:
    """Bounded fair-share queue of sweep jobs over one scheduler thread."""

    def __init__(self, session, max_queued: int = 8,
                 journal: str | os.PathLike | None = None,
                 resume: bool = False, max_retained: int = 64,
                 ttl_s: float | None = None,
                 keyring: Keyring | None = None) -> None:
        self.session = session
        self.max_queued = max_queued
        self.max_retained = max_retained
        self.ttl_s = ttl_s
        self.keyring = keyring or Keyring()
        self._jobs: dict[str, Job] = {}
        # Jobs being --resume-jobs-re-run: exempt from eviction until
        # their re-run is terminal (they carry the lowest ids, so the
        # max_retained overflow rule would evict them first otherwise).
        self._resuming: set[str] = set()
        # RLock: journal appends nest under the submit/prune lock.
        self._lock = threading.RLock()
        self._cv = threading.Condition(self._lock)
        self._queue = WeightedFairQueue()
        self._stop = False
        self._cancel = False
        self._last_session = None   # derived session of the running job
        self._ck_dir: str | None = None
        self._journal_path = os.fspath(journal) if journal else None
        self._journal_log: jsonl.Appender | None = None
        last_id, interrupted = 0, []
        if self._journal_path:
            parent = os.path.dirname(os.path.abspath(self._journal_path))
            os.makedirs(parent, exist_ok=True)
            if os.path.exists(self._journal_path):
                last_id, interrupted = self._replay()
            self._journal_log = jsonl.Appender(self._journal_path)
        self._ids = itertools.count(last_id + 1)
        self._scheduler = threading.Thread(
            target=self._loop, name="repro-serve-job", daemon=True)
        self._scheduler.start()
        if resume:
            for job in interrupted:
                self._resume(job)

    # ------------------------------------------------------------------
    def submit(self, kind: str, params: dict | None = None, *,
               tenant: Tenant | None = None,
               priority: int | None = None) -> Job:
        params = dict(params or {})
        allowed = ALLOWED_PARAMS.get(kind)
        if allowed is None:
            raise UnknownJobKind(
                f"unknown job kind {kind!r} "
                f"(choices: {', '.join(ALLOWED_PARAMS)})")
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise UnknownJobKind(
                f"unknown {kind} parameter {unknown[0]!r} "
                f"(choices: {', '.join(sorted(allowed))})")
        # A bad value is a UsageError (400) before any job is journaled.
        from ..eval.experiments import fig1_sizes, table2_keys

        if kind == "table2":
            table2_keys(params.get("tools"))
        else:
            fig1_sizes(**params)
        tenant = tenant or self.keyring.default
        with self._cv:
            waiting = sum(1 for job in self._jobs.values()
                          if job.status in ("queued", "running"))
            if waiting >= self.max_queued:
                raise JobQueueFull(
                    f"{waiting} jobs already queued (limit {self.max_queued})")
            if tenant.max_jobs is not None:
                mine = sum(1 for job in self._jobs.values()
                           if job.status in ("queued", "running")
                           and job.tenant == tenant.name)
                if mine >= tenant.max_jobs:
                    obs_metrics.inc("qos.quota_rejections")
                    obs_metrics.inc(
                        f"qos.quota_rejections|tenant={tenant.name}")
                    obs_events.emit("qos.quota", tenant=tenant.name,
                                    inflight=mine, limit=tenant.max_jobs)
                    raise JobQuotaExceeded(
                        f"tenant {tenant.name!r} already has {mine} jobs "
                        f"queued or running (quota {tenant.max_jobs})")
            job = Job(id=f"job-{next(self._ids)}", kind=kind, params=params,
                      tenant=tenant.name,
                      priority=(tenant.priority if priority is None
                                else int(priority)))
            self._jobs[job.id] = job
            self._journal("submitted", id=job.id, kind=kind, params=params,
                          tenant=job.tenant, priority=job.priority)
            self._prune()
            self._enqueue(job)
        obs_metrics.inc("serve.jobs_submitted")
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self, tenant: str | None = None) -> list[Job]:
        """Retained jobs in submission order, optionally one tenant's."""
        with self._lock:
            jobs = sorted(self._jobs.values(), key=_job_seq)
        if tenant is not None:
            jobs = [job for job in jobs if job.tenant == tenant]
        return jobs

    def drain(self, timeout: float | None = None,
              cancel: bool = False) -> None:
        """Finish queued work and stop accepting more.

        ``cancel=True`` drops still-queued jobs (the running one
        finishes): their journal entries stay non-terminal, so a
        journaled restart lists them as ``interrupted`` — honest, and
        recoverable with ``resume``.
        """
        with self._cv:
            self._stop = True
            self._cancel = cancel
            self._cv.notify_all()
        if timeout is None or timeout > 0:
            self._scheduler.join()
        with self._lock:
            self._journal_log = None

    def qos_snapshot(self) -> dict:
        """Queued/running job counts per tenant (``/healthz``)."""
        with self._lock:
            counts: dict[str, dict] = {}
            for job in self._jobs.values():
                if job.status in ("queued", "running"):
                    entry = counts.setdefault(job.tenant,
                                              {"queued": 0, "running": 0})
                    entry[job.status] += 1
            return counts

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, job: Job) -> None:
        """Queue ``job`` for the scheduler thread (caller holds the lock).

        A re-enqueued (preempted/resumed) job passes its original ``seq``
        so it returns to the head of its tenant/priority class rather
        than the back of the line it already waited in.
        """
        tenant = self.keyring.get(job.tenant)
        job.seq = self._queue.enqueue(
            job.tenant, job, weight=tenant.weight, priority=job.priority,
            seq=job.seq or None)
        self._cv.notify_all()

    def _loop(self) -> None:
        """Scheduler body: fair-share pop, run, repeat until drained."""
        while True:
            with self._cv:
                while True:
                    if self._stop and (self._cancel or not len(self._queue)):
                        return
                    job = self._queue.pop()
                    if job is not None:
                        break
                    self._cv.wait(0.05)
            self._run(job)

    def _should_preempt(self, job: Job) -> bool:
        """True when a strictly-higher-priority job is waiting (the
        running sweep polls this at every cell boundary)."""
        with self._lock:
            if self._stop:
                return False   # draining: finish, don't thrash
            top = self._queue.highest_priority()
            return top is not None and top > job.priority

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _journal(self, event: str, **fields) -> None:
        """Append one event, fsynced before returning."""
        with self._lock:
            if self._journal_log is not None:   # None: no journal, drained
                self._journal_log.append({"event": event, **fields})

    def _replay(self) -> tuple[int, list[Job]]:
        """Rebuild job state from the journal; returns
        ``(highest_id, interrupted_jobs_in_order)``."""
        jobs: dict[str, Job] = {}
        for event in jsonl.read(self._journal_path):
            job_id = event.get("id")
            kind = event.get("event")
            if not isinstance(job_id, str) or not isinstance(kind, str):
                continue
            if kind == "submitted":
                priority = event.get("priority")
                jobs[job_id] = Job(
                    id=job_id, kind=event.get("kind", "?"),
                    params=event.get("params") or {},
                    tenant=event.get("tenant") or "anon",
                    priority=(int(priority)
                              if isinstance(priority, int) else 0))
                continue
            job = jobs.get(job_id)
            if job is None:
                continue
            if kind == "running":
                job.status = "running"
                job.trace = event.get("trace") or job.trace
            elif kind == "event":
                data = event.get("data")
                if isinstance(data, dict):
                    job.events.append(data)
            elif kind == "resumed":
                job.status = "queued"
                job.events = []
            elif kind == "preempted":
                job.status = "queued"
                job.preemptions += 1
            elif kind == "done":
                job.status = "done"
                job.output = event.get("output")
                job.summary = event.get("summary") or []
                job.error = None
            elif kind == "failed":
                job.status = "failed"
                job.error = event.get("error")
        last_id = max((_job_seq(job) for job in jobs.values()), default=0)
        interrupted = []
        for job in jobs.values():
            if job.status in TERMINAL_STATUSES:
                # The journal does not record wall-clock times; TTL for
                # replayed terminal jobs measures from recovery, so a
                # long-dead server's results survive long enough to read.
                job.finished_at = time.time()
            else:
                job.status = "interrupted"
                job.interrupted = True
                interrupted.append(job)
        interrupted.sort(key=_job_seq)
        self._jobs = jobs
        if jobs:
            obs_metrics.inc("serve.jobs_recovered", len(jobs))
        return last_id, interrupted

    def _resume(self, job: Job) -> None:
        """Re-queue one interrupted job (keeps its id and marker)."""
        with self._cv:
            job.status = "queued"
            job.error = None
            self._resuming.add(job.id)
            self._journal("resumed", id=job.id)
            self._enqueue(job)
        obs_metrics.inc("serve.jobs_resumed")

    def _prune(self) -> None:
        """Evict old terminal jobs (caller holds the lock).

        Jobs in ``_resuming`` are never candidates: between the resume
        decision and the re-run's terminal transition the job may look
        terminal to this sweep (replayed state, or a mid-transition
        race), and evicting it would orphan the in-flight re-run.
        """
        terminal = sorted(
            (job for job in self._jobs.values()
             if job.status in TERMINAL_STATUSES
             and job.id not in self._resuming), key=_job_seq)
        drop = []
        if self.ttl_s is not None:
            cutoff = time.time() - self.ttl_s
            drop = [job for job in terminal
                    if job.finished_at is not None
                    and job.finished_at < cutoff]
        kept = [job for job in terminal if job not in drop]
        if self.max_retained is not None:
            overflow = len(kept) - self.max_retained
            if overflow > 0:
                drop.extend(kept[:overflow])
        for job in drop:
            del self._jobs[job.id]
            self._discard_checkpoint(job)
            obs_metrics.inc("serve.jobs_evicted")

    # ------------------------------------------------------------------
    def _run(self, job: Job) -> None:
        job.status = "running"
        self._last_session = None
        obs_on = obs_trace.enabled()
        previous_trace = obs_trace.TRACER.trace_id
        if obs_on:
            # One trace per job: spans/events the sweep records (pool
            # workers included) carry this id, so /v1/traces/<id> can
            # assemble the job's tree.  Re-runs of a resumed job mint a
            # fresh id — its event capture starts over too.
            job.trace = obs_trace.new_trace()
            job.events = []
        self._journal("running", id=job.id, trace=job.trace)
        obs_metrics.set_gauge("serve.jobs_running", 1)

        def capture(event: dict) -> None:
            if event.get("job") == job.id:
                job.events.append(event)
                self._journal("event", id=job.id, data=event)

        scope = (obs_events.EVENTS.scope(job=job.id) if obs_on
                 else nullcontext())
        subscription = (obs_events.EVENTS.subscribe(capture) if obs_on
                        else nullcontext())
        try:
            with scope, subscription:
                output = self._execute(job)
            summary = self._summary_lines()
            # Atomic terminal transition: a concurrent prune must never
            # see status "done" before the journal record is durable and
            # finished_at is set (the old ordering could evict a resumed
            # job mid-commit and lose its result).
            with self._lock:
                job.output = output
                job.summary = summary
                job.error = None
                job.finished_at = time.time()
                job.status = "done"
                self._journal("done", id=job.id, output=job.output,
                              summary=job.summary)
                self._resuming.discard(job.id)
                self._discard_checkpoint(job)
            obs_metrics.inc("serve.jobs_done")
        except SweepPreempted:
            # A higher-priority job arrived: the sweep stopped at a cell
            # boundary with its checkpoint durable.  Re-queue at the old
            # scheduler position; the re-run resumes from the checkpoint
            # so its output stays byte-identical to an uninterrupted run.
            with self._cv:
                job.status = "queued"
                job.preemptions += 1
                self._journal("preempted", id=job.id,
                              preemptions=job.preemptions)
                self._enqueue(job)
            obs_metrics.inc("qos.preemptions")
            obs_metrics.inc(f"qos.preemptions|tenant={job.tenant}")
            obs_events.emit("qos.preempt", job=job.id, tenant=job.tenant,
                            priority=job.priority)
        except Exception as exc:  # noqa: BLE001 - reported via the job record
            with self._lock:
                job.error = str(exc)
                job.finished_at = time.time()
                job.status = "failed"
                self._journal("failed", id=job.id, error=job.error)
                self._resuming.discard(job.id)
                self._discard_checkpoint(job)
            obs_metrics.inc("serve.jobs_failed")
        finally:
            if obs_on:
                obs_trace.TRACER.trace_id = previous_trace
            obs_metrics.set_gauge("serve.jobs_running", 0)
            with self._lock:
                self._prune()

    def _summary_lines(self) -> list[str]:
        session = self._last_session or self.session
        return session.summary_lines()

    # ------------------------------------------------------------------
    # per-job checkpoints (the preempt/resume substrate)
    # ------------------------------------------------------------------
    def _checkpoint_path(self, job: Job) -> str:
        if self._ck_dir is None:
            if self._journal_path:
                # Journal-adjacent: survives a crash, so --resume-jobs
                # re-runs pick up the interrupted sweep's partial work.
                self._ck_dir = os.path.abspath(self._journal_path) + ".ck"
            else:
                self._ck_dir = tempfile.mkdtemp(prefix="repro-jobs-ck-")
            os.makedirs(self._ck_dir, exist_ok=True)
        return os.path.join(self._ck_dir, f"{job.id}.jsonl")

    def _discard_checkpoint(self, job: Job) -> None:
        """Best-effort removal of a terminal job's checkpoint file."""
        if self._ck_dir is None:
            return
        try:
            os.remove(os.path.join(self._ck_dir, f"{job.id}.jsonl"))
        except OSError:
            pass

    def _job_session(self, job: Job):
        """A derived session mirroring the server's execution policy,
        plus this job's checkpoint (``resume=True`` replays any cells a
        previous preempted/interrupted run committed) and preempt hook."""
        from ..api import Session

        base = self.session
        return Session(
            jobs=getattr(base, "jobs", 1),
            cache=getattr(base, "cache", None),
            runner=getattr(base, "runner_config", None),
            checkpoint=self._checkpoint_path(job),
            resume=True,
            inject_faults=getattr(base, "inject_faults", ()),
            max_tasks_per_child=getattr(base, "max_tasks_per_child", None),
            chaos=getattr(base, "chaos", None),
            fabric=getattr(base, "fabric", None),
            preempt=lambda: self._should_preempt(job),
        )

    def _execute(self, job: Job) -> str:
        """Produce the rendered sweep text (overridable in tests)."""
        session = self._job_session(job)
        self._last_session = session
        if job.kind == "table2":
            from ..eval import render_table2

            return render_table2(session.table2(
                tools=job.params.get("tools")))
        from ..eval.experiments import render_fig1

        return render_fig1(session.fig1(**job.params))
