"""Pre-forked evaluator worker pool behind the asyncio serve front end.

``serve --workers N`` (N > 1) forks N evaluator processes at startup —
after the parent's warm loop, so every child inherits the warm
measurement memos for free — and routes each coalesced ``/v1/idct``
batch to a worker over length-prefixed JSON IPC
(:func:`repro.serve.protocol.read_frame` and friends).  The parent owns
everything stateful: the HTTP front end, the micro-batcher, the circuit
breaker, admission control, and the durable job journal (a single
writer, so ``--resume-jobs`` holds under SIGKILL of any worker).  The
content-addressed artifact cache stays the shared substrate: workers
open the same cache directory, whose atomic writes make concurrent
producers safe.

**Routing.**  Batches have (design, engine) affinity: a stable SHA-256
hash picks the worker, so one design's compiled simulator state stays
hot in one process while different designs evaluate genuinely in
parallel — multiplying the batcher's coalescing win by core count.  A
half-open circuit-breaker probe instead prefers the *freshest* worker
(most recently spawned), because the probe exists to test whether a
respawned evaluator is healthy.

**Supervision ladder.**  Idle workers are heartbeat-pinged.  A request
that outlives its wall-clock deadline escalates: soft cancel (SIGINT —
the worker answers an honest ``cancelled`` error and survives), then
SIGTERM, then SIGKILL.  A dead worker (EOF on its socket, however it
died) is respawned with exponential backoff under a pool-wide
:class:`~repro.resilience.supervise.CrashBudget`; a request in flight on
a dying worker is retried once on a fresh worker, and a request that
kills two workers is quarantined — the caller gets an honest
:class:`~repro.core.errors.WorkerCrashError` (HTTP 503), never a hung
connection or a silently wrong body.  Chaos drills hook the same
:meth:`~repro.chaos.ChaosPolicy.should_kill` decision as ``exec`` pool
workers, keyed by ``serve:<design>:<engine>:<seq>`` task ids.

**Observability.**  Each eval reply ships the worker's span buffer,
event log, and metrics snapshot; the parent ingests them so
``/v1/traces/<id>`` stays one connected tree and ``/metrics`` aggregates
worker counters.  Pool state surfaces as ``/healthz``'s ``workers``
array and the ``serve.worker_restarts`` / ``serve.worker_kills``
counters (pre-registered, so they render zero-valued under
``--workers 1``).
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import multiprocessing
import os
import signal
import socket
import time
from dataclasses import dataclass, field

from ..core.errors import (
    BudgetExceeded,
    EvaluationError,
    ReproError,
    WorkerCrashError,
)
from ..engines import UnknownEngineError
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resilience.supervise import CrashBudget, default_crash_budget
from .protocol import read_frame, recv_frame, send_frame, write_frame

__all__ = ["PoolConfig", "WorkerInit", "WorkerHandle", "WorkerPool",
           "pool_worker_main"]


@dataclass(frozen=True)
class WorkerInit:
    """Picklable bootstrap state a forked evaluator worker mirrors.

    ``cache_dir``/``chaos`` re-activate the parent session's substrate in
    the child (explicitly, like :class:`repro.exec.worker.WorkerContext`
    — fork inheritance of globals is never relied on); ``obs`` selects
    whether the worker records spans/metrics to ship back; ``budget_s``
    is the per-request wall budget the worker arms around each
    evaluation (the parent's deadline ladder is the backstop above it).
    """

    cache_dir: str | None = None
    chaos: object | None = None
    obs: bool = False
    budget_s: float | None = None


@dataclass
class PoolConfig:
    """Tunable supervision policy of one :class:`WorkerPool`."""

    size: int = 2                  # evaluator processes
    deadline_s: float = 300.0      # per-request wall deadline (ladder past it)
    soft_grace_s: float = 1.0      # SIGINT answer window before SIGTERM
    term_grace_s: float = 2.0      # SIGTERM death window before SIGKILL
    ping_interval_s: float = 5.0   # idle heartbeat period
    ping_timeout_s: float = 2.0    # pong deadline before the ladder
    crash_budget: int | None = None    # pool-wide deaths before giving up
    backoff_base_s: float = 0.05   # respawn backoff base (doubles per crash)


class _WorkerGone(Exception):
    """Internal: the worker died (or is unusable) for this request."""


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------

def _close_inherited_fds(keep: frozenset) -> None:
    """Close every fd the fork inherited except ``keep`` and std streams.

    The child must not hold the parent's listener, client connections,
    or *other workers'* IPC sockets — a stray duplicate would defeat the
    EOF-based death detection those sockets exist for.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover - non-procfs platform
        return
    for fd in fds:
        if fd > 2 and fd not in keep:
            try:
                os.close(fd)
            except OSError:
                pass


def _error_payload(exc: BaseException) -> dict:
    """Classify an evaluation exception for the wire (type name + text)."""
    from ..api import UsageError

    if isinstance(exc, BudgetExceeded):
        kind = "BudgetExceeded"
    elif isinstance(exc, UnknownEngineError):
        # Its own wire kind: the rebuilt exception must stay both a
        # UsageError (HTTP 400) and a ValueError (pool.evaluate contract).
        kind = "UnknownEngineError"
    elif isinstance(exc, UsageError):
        kind = "UsageError"
    elif isinstance(exc, ReproError):
        kind = "EvaluationError" if isinstance(exc, EvaluationError) \
            else "ReproError"
    elif isinstance(exc, ValueError):
        kind = "ValueError"
    else:
        kind = "RuntimeError"
    return {"type": kind, "message": str(exc)}


def _rebuild_error(err: dict, design: str) -> Exception:
    """The parent-side twin of :func:`_error_payload`: a worker error
    frame becomes the exception class the server's HTTP mapping and the
    circuit breaker already understand."""
    kind = err.get("type", "RuntimeError")
    message = err.get("message") or "worker error"
    if kind == "cancelled":
        return BudgetExceeded(
            f"evaluation cancelled by the worker deadline ladder: {message}",
            design=design, phase="serve.pool")
    if kind == "BudgetExceeded":
        return BudgetExceeded(message)
    if kind == "UnknownEngineError":
        return UnknownEngineError(message, name="")
    if kind == "UsageError":
        from ..api import UsageError

        return UsageError(message)
    if kind == "ValueError":
        return ValueError(message)
    if kind in ("EvaluationError", "ReproError"):
        return EvaluationError(message)
    return RuntimeError(message)


def pool_worker_main(conn: socket.socket, init: WorkerInit) -> None:
    """Blocking main loop of one forked evaluator worker.

    Speaks the frame protocol over ``conn``: ``ping`` → pong, ``warm``
    → build the design's evaluator, ``eval`` → one batched evaluation
    (obs buffers shipped in the reply), ``sleep`` → supervision drill
    (how tests exercise the ladder), ``exit`` → clean shutdown.  EOF on
    ``conn`` means the parent is gone; the worker exits rather than
    orphan itself.  SIGINT mid-evaluation answers an honest
    ``cancelled`` error frame; SIGINT while idle (or SIGTERM any time)
    just exits.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        signal.set_wakeup_fd(-1)  # don't write into the parent's self-pipe
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    _close_inherited_fds(keep=frozenset({conn.fileno()}))

    from .. import chaos as chaos_mod
    from .. import obs
    from ..api import Session
    from ..exec.worker import WorkerContext
    from ..resilience import budget as res_budget

    WorkerContext(cache_dir=init.cache_dir, trace=init.obs,
                  chaos=init.chaos).apply()
    session = Session()

    def handle_eval(req: dict) -> dict:
        policy = chaos_mod.active()
        task = req.get("task") or ""
        if policy is not None and task \
                and policy.should_kill(task, req.get("attempt", 0)):
            # Chaos drill: die the way a segfault/OOM-kill would — no
            # unwinding, no reply — so the parent's ladder, retry, and
            # quarantine paths see the real EOF.
            os.kill(os.getpid(), signal.SIGKILL)
        out = {"id": req.get("id"), "ok": True, "pid": os.getpid(),
               "spans": [], "events": [], "metrics": None}
        trace_on = obs_trace.enabled()
        if trace_on:
            obs.clear()
            if req.get("trace"):
                obs_trace.new_trace(req["trace"])
        try:
            evaluator = session.evaluator(req["design"])
            budget = None
            if init.budget_s is not None:
                budget = res_budget.Budget(wall_s=init.budget_s,
                                           design=evaluator.name,
                                           phase="serve.request")
            with res_budget.limit(budget):
                out["outputs"] = evaluator.evaluate(
                    req["blocks"], engine=req.get("engine", "model"))
        except KeyboardInterrupt:
            out["ok"] = False
            out["error"] = {"type": "cancelled",
                            "message": f"soft-cancelled {task or 'request'}"}
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            out["ok"] = False
            out["error"] = _error_payload(exc)
        finally:
            if trace_on:
                out["spans"] = [rec.to_dict() for rec in obs_trace.events()]
                out["events"] = obs_events.EVENTS.events()
                out["metrics"] = obs_metrics.snapshot()
                obs.clear()
        return out

    def handle_sleep(req: dict) -> dict:
        # Supervision drill: hold the worker busy.  "wedged" also masks
        # the polite signals, forcing the ladder all the way to SIGKILL.
        if req.get("wedged"):
            signal.pthread_sigmask(
                signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        deadline = time.monotonic() + float(req.get("s", 0.0))
        try:
            while time.monotonic() < deadline:
                time.sleep(0.02)
        except KeyboardInterrupt:
            return {"id": req.get("id"), "ok": False, "pid": os.getpid(),
                    "error": {"type": "cancelled",
                              "message": "soft-cancelled sleep"}}
        return {"id": req.get("id"), "ok": True, "pid": os.getpid()}

    try:
        while True:
            try:
                req = recv_frame(conn)
            except KeyboardInterrupt:
                return
            if req is None or req.get("op") == "exit":
                return
            op = req.get("op")
            if op == "ping":
                out = {"id": req.get("id"), "ok": True, "pid": os.getpid()}
            elif op == "warm":
                try:
                    session.evaluator(req["design"])
                    out = {"id": req.get("id"), "ok": True,
                           "pid": os.getpid()}
                except KeyboardInterrupt:
                    return
                except BaseException as exc:  # noqa: BLE001
                    out = {"id": req.get("id"), "ok": False,
                           "pid": os.getpid(), "error": _error_payload(exc)}
            elif op == "eval":
                out = handle_eval(req)
            elif op == "sleep":
                out = handle_sleep(req)
            else:
                out = {"id": req.get("id"), "ok": False, "pid": os.getpid(),
                       "error": {"type": "RuntimeError",
                                 "message": f"unknown op {op!r}"}}
            try:
                send_frame(conn, out)
            except (KeyboardInterrupt, BrokenPipeError, ConnectionError):
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

@dataclass
class WorkerHandle:
    """Parent-side state of one pool slot (the process behind it may be
    respawned many times; the slot and its affinity are stable)."""

    index: int
    proc: object | None = None
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    pid: int | None = None
    state: str = "dead"       # idle | busy | dead | failed | stopped
    restarts: int = 0         # respawns of this slot
    inflight: int = 0
    spawned_at: float = 0.0   # monotonic; prefer_fresh routes to the max
    respawn_delay: float = 0.0
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    def snapshot(self) -> dict:
        return {"pid": self.pid, "state": self.state,
                "inflight": self.inflight, "restarts": self.restarts}


class WorkerPool:
    """Supervised pre-forked evaluator processes with affinity routing."""

    def __init__(self, init: WorkerInit,
                 config: PoolConfig | None = None) -> None:
        self.init = init
        self.config = config or PoolConfig()
        size = max(2, int(self.config.size))
        limit = (self.config.crash_budget
                 if self.config.crash_budget is not None
                 else default_crash_budget(size))
        self.budget = CrashBudget(limit, base_s=self.config.backoff_base_s)
        self.workers = [WorkerHandle(index=i) for i in range(size)]
        self.stats = {"kills": 0, "restarts": 0, "retries": 0,
                      "quarantined": 0}
        self.quarantined: list[str] = []
        self._seq = itertools.count(1)
        self._draining = False
        self._heartbeat: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self, warm: tuple = ()) -> None:
        """Fork every worker, warm the named designs, start heartbeats."""
        for worker in self.workers:
            async with worker.lock:
                await self._spawn(worker, respawn=False)
        if warm:
            await asyncio.gather(*(self._warm(worker, warm)
                                   for worker in self.workers))
        self._heartbeat = asyncio.get_running_loop().create_task(
            self._heartbeat_loop())

    async def _warm(self, worker: WorkerHandle, designs: tuple) -> None:
        for name in designs:
            try:
                await self._call(worker, {"op": "warm", "design": name},
                                 self.config.deadline_s)
            except _WorkerGone:
                return  # it will respawn (cold) on first use

    async def drain(self) -> None:
        """Stop the pool: polite exit frames, then escalate to signals."""
        if self._draining:
            return
        self._draining = True
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            try:
                await self._heartbeat
            except asyncio.CancelledError:
                pass
        grace = self.config.term_grace_s
        for worker in self.workers:
            if worker.state in ("dead", "failed", "stopped"):
                continue
            try:
                await asyncio.wait_for(worker.lock.acquire(),
                                       self.config.soft_grace_s)
            except asyncio.TimeoutError:
                self._signal(worker, signal.SIGTERM)
            else:
                try:
                    if worker.writer is not None:
                        await write_frame(worker.writer, {"op": "exit"})
                except (ConnectionError, OSError):
                    pass
                finally:
                    worker.lock.release()
        loop = asyncio.get_running_loop()
        for worker in self.workers:
            proc = worker.proc
            if proc is not None and proc.is_alive():
                await loop.run_in_executor(None, proc.join, grace)
                if proc.is_alive():
                    self._signal(worker, signal.SIGTERM)
                    await loop.run_in_executor(None, proc.join, grace)
                if proc.is_alive():
                    self._signal(worker, signal.SIGKILL)
                    await loop.run_in_executor(None, proc.join, None)
            self._close_transport(worker)
            worker.state = "stopped"

    def snapshot(self) -> list[dict]:
        """Per-worker state for ``/healthz``'s ``workers`` array."""
        return [worker.snapshot() for worker in self.workers]

    # -- the public request path ---------------------------------------
    async def evaluate(self, design: str, engine: str, blocks,
                       *, prefer_fresh: bool = False):
        """One batched evaluation, retried once across a worker death.

        Raises the same exception family the in-process path would; a
        request whose two attempts both killed their worker raises
        :class:`WorkerCrashError` (the server answers an honest 503) and
        is quarantined like ``exec``'s poison tasks.
        """
        seq = next(self._seq)
        task = f"serve:{design}:{engine}:{seq}"
        for attempt in (0, 1):
            worker = self._pick(design, engine, prefer_fresh=prefer_fresh)
            payload = {"op": "eval", "id": seq, "design": design,
                       "engine": engine, "blocks": blocks, "task": task,
                       "attempt": attempt,
                       "trace": obs_trace.TRACER.trace_id or None}
            try:
                reply = await self._call(worker, payload,
                                         self.config.deadline_s)
            except _WorkerGone as exc:
                if attempt == 0:
                    self.stats["retries"] += 1
                    obs_trace.event("serve.worker_retry", task=task)
                    continue
                self._quarantine(task)
                raise WorkerCrashError(
                    "request killed two workers and was quarantined",
                    design=design, phase="serve.pool", task=task) from exc
            return self._accept(reply, design)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- routing -------------------------------------------------------
    def _pick(self, design: str, engine: str,
              prefer_fresh: bool = False) -> WorkerHandle:
        if prefer_fresh:
            # Half-open probe: test the freshest (most recently spawned)
            # worker, not the slot whose affinity just saw the failures.
            return max(self.workers, key=lambda w: w.spawned_at)
        digest = hashlib.sha256(f"{design}|{engine}".encode()).hexdigest()
        return self.workers[int(digest[:8], 16) % len(self.workers)]

    # -- one framed round-trip, with the ladder ------------------------
    async def _call(self, worker: WorkerHandle, payload: dict,
                    deadline_s: float | None) -> dict:
        async with worker.lock:
            if worker.state == "dead" and not self._draining:
                await self._respawn(worker)
            if worker.state != "idle":
                raise _WorkerGone(
                    f"worker {worker.index} is {worker.state}")
            worker.state = "busy"
            worker.inflight += 1
            try:
                await write_frame(worker.writer, payload)
                reply = await self._await_reply(worker, deadline_s)
                if reply is None:
                    self._note_death(worker, "died mid-request")
                    raise _WorkerGone(f"worker {worker.index} died")
                return reply
            except (ConnectionError, OSError) as exc:
                self._note_death(worker, f"connection lost: {exc}")
                raise _WorkerGone(str(exc)) from exc
            finally:
                worker.inflight -= 1
                if worker.state == "busy":
                    worker.state = "idle"

    async def _await_reply(self, worker: WorkerHandle,
                           deadline_s: float | None) -> dict | None:
        if deadline_s is None:
            return await read_frame(worker.reader)
        try:
            return await asyncio.wait_for(read_frame(worker.reader),
                                          deadline_s)
        except asyncio.TimeoutError:
            return await self._ladder(worker)

    async def _ladder(self, worker: WorkerHandle) -> dict | None:
        """Deadline blown: SIGINT → SIGTERM → SIGKILL, each with a grace
        window.  A reply here is the worker's soft-cancel answer (it
        survives); ``None`` means it is dead."""
        obs_trace.event("serve.worker_ladder", index=worker.index,
                        pid=worker.pid)
        obs_events.emit("worker.ladder", domain="serve",
                        index=worker.index, pid=worker.pid)
        for signum, grace in ((signal.SIGINT, self.config.soft_grace_s),
                              (signal.SIGTERM, self.config.term_grace_s)):
            if not self._signal(worker, signum):
                return None
            try:
                return await asyncio.wait_for(read_frame(worker.reader),
                                              grace)
            except asyncio.TimeoutError:
                continue
            except (ConnectionError, OSError):
                return None
        self._signal(worker, signal.SIGKILL)
        try:
            # EOF lands as soon as the kernel reaps the socket.
            return await asyncio.wait_for(read_frame(worker.reader), 10.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return None

    # -- spawning / death bookkeeping ----------------------------------
    async def _spawn(self, worker: WorkerHandle, respawn: bool) -> None:
        """Fork one worker into ``worker`` (caller holds its lock)."""
        parent_sock, child_sock = socket.socketpair()
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=pool_worker_main,
                           args=(child_sock, self.init),
                           name=f"repro-serve-worker-{worker.index}",
                           daemon=True)
        proc.start()
        child_sock.close()
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        worker.proc, worker.reader, worker.writer = proc, reader, writer
        worker.pid = proc.pid
        worker.state = "idle"
        worker.spawned_at = time.monotonic()
        if respawn:
            worker.restarts += 1
            self.stats["restarts"] += 1
            obs_metrics.inc("serve.worker_restarts")
            obs_trace.event("serve.worker_restart", index=worker.index,
                            pid=worker.pid, restarts=worker.restarts)
            obs_events.emit("worker.restart", domain="serve",
                            index=worker.index, pid=worker.pid,
                            restarts=worker.restarts)

    async def _respawn(self, worker: WorkerHandle) -> None:
        """Bring a dead slot back (caller holds its lock), with backoff;
        an exhausted crash budget parks the slot as ``failed``."""
        if self.budget.exhausted:
            worker.state = "failed"
            obs_events.emit("worker.budget_exhausted", domain="serve",
                            index=worker.index, crashes=self.budget.crashes)
            return
        if worker.respawn_delay:
            await asyncio.sleep(worker.respawn_delay)
            worker.respawn_delay = 0.0
        await self._spawn(worker, respawn=True)

    def _note_death(self, worker: WorkerHandle, reason: str) -> None:
        """Record one observed worker death (idempotent per incarnation)."""
        if worker.state in ("dead", "failed", "stopped"):
            return
        worker.state = "dead"
        worker.respawn_delay = self.budget.note()
        self.stats["kills"] += 1
        obs_metrics.inc("serve.worker_kills")
        obs_trace.event("serve.worker_death", index=worker.index,
                        pid=worker.pid, reason=reason)
        obs_events.emit("worker.kill", domain="serve", index=worker.index,
                        pid=worker.pid, reason=reason)
        self._close_transport(worker)
        if worker.proc is not None:
            worker.proc.join(timeout=0)  # reap if already waitable

    def _close_transport(self, worker: WorkerHandle) -> None:
        if worker.writer is not None:
            try:
                worker.writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
        worker.reader = worker.writer = None

    def _signal(self, worker: WorkerHandle, signum: int) -> bool:
        if worker.pid is None:
            return False
        try:
            os.kill(worker.pid, signum)
        except ProcessLookupError:
            return False
        return True

    def _quarantine(self, task: str) -> None:
        self.stats["quarantined"] += 1
        self.quarantined.append(task)
        obs_metrics.inc("serve.quarantined_requests")
        obs_events.emit("worker.poison", domain="serve", task=task)

    # -- heartbeat -----------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        """Ping idle workers; respawn dead slots proactively.  A worker
        that cannot answer a ping while idle is wedged — the ladder
        (inside :meth:`_call`, via the ping's deadline) takes it down
        and the next round respawns it."""
        while not self._draining:
            await asyncio.sleep(self.config.ping_interval_s)
            for worker in self.workers:
                if self._draining:
                    return
                if worker.lock.locked() or worker.state == "failed":
                    continue
                try:
                    await self._call(worker, {"op": "ping"},
                                     self.config.ping_timeout_s)
                except _WorkerGone:
                    continue

    # -- reply handling ------------------------------------------------
    def _accept(self, reply: dict, design: str):
        self._ingest(reply)
        if reply.get("ok"):
            outputs = reply.get("outputs")
            if not isinstance(outputs, list):
                raise EvaluationError("worker returned a malformed reply",
                                      design=design, phase="serve.pool")
            return outputs
        raise _rebuild_error(reply.get("error") or {}, design)

    def _ingest(self, reply: dict) -> None:
        """Merge the worker's shipped obs buffers into the parent's
        substrate (span ids remapped; trace ids already stamped)."""
        if not obs_trace.enabled():
            return
        spans = reply.get("spans")
        if spans:
            obs_trace.TRACER.ingest(spans)
        events = reply.get("events")
        if events:
            obs_events.EVENTS.ingest(events)
        snap = reply.get("metrics")
        if snap:
            obs_metrics.merge_snapshot(snap)
