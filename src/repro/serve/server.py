"""The asyncio evaluation server: routing, admission control, lifecycle.

:class:`EvalServer` binds a :class:`~repro.api.Session` to a TCP port and
exposes the pipeline as JSON-over-HTTP endpoints.  :attr:`EvalServer.ROUTES`
lists them, once: each row pairs a path (exact, or an id prefix written
``<id>``) with the methods it answers and their handlers, and a wrong
method answers **405** naming the row's methods.

Requests may carry a W3C ``traceparent`` header; the server parses it
into a :class:`~repro.obs.trace.TraceContext`, stamps the request's
span record with the caller's trace id (so ``/v1/traces/<id>`` can
assemble cross-process trees), and echoes the header back.

Three policies wrap the endpoints:

* **batching** — concurrent ``/v1/idct`` requests for one design
  coalesce through :class:`~repro.serve.batcher.MicroBatcher` into
  single vectorized evaluations (window: ``max_batch`` blocks or
  ``batch_wait_s`` seconds, whichever closes first);
* **admission control** — one gate (:meth:`EvalServer._gated`) runs the
  tenant's token bucket, the ``/v1/idct`` circuit breaker and the
  in-flight bound in that order: at most ``max_inflight`` compute
  requests are admitted; past that the server answers **429** (the
  ``serve.queue_depth`` gauge tracks the admitted depth, and
  ``serve.rejected_total`` counts the turn-aways).  Each admitted
  request runs under an optional wall-clock budget
  (:mod:`repro.resilience.budget`); exhaustion answers **504**;
* **lifecycle** — construction warm-starts the configured designs
  through the artifact cache; ``SIGTERM`` stops accepting work (new
  compute requests answer **503**), finishes everything in flight, and
  exits 0.  ``SIGINT`` drains the same way but exits 3, matching the
  CLI's interrupt contract.

All simulation/measurement runs on a single dedicated compute thread —
the event loop only parses, batches, and answers, so ``/healthz`` and
``/metrics`` stay live while the simulator is busy.

With ``--workers N`` (N > 1) the batched ``/v1/idct`` evaluations move
to a pre-forked :class:`~repro.serve.pool.WorkerPool` instead: each
coalesced batch routes to an evaluator process by (design, engine)
affinity, supervised by the heartbeat → soft cancel → SIGTERM → SIGKILL
→ respawn ladder.  A batch in flight on a dying worker is retried once
on a fresh worker or answered with an honest **503**; verify/measure,
jobs, the journal, the breaker, and the batcher all stay in the parent.
"""

from __future__ import annotations

import asyncio
import math
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import obs
from ..core import jsonl
from ..core.errors import (BudgetExceeded, EvaluationError, UsageError,
                           WorkerCrashError)
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.trace import TraceContext
from ..resilience import budget as res_budget
from ..engines import resolve_engine
from ..qos import Keyring, RateLimiter, Tenant, UnknownApiKeyError
from .batcher import MicroBatcher
from .breaker import CircuitBreaker
from .evaluator import validate_blocks
from .jobs import JobManager, JobQueueFull, UnknownJobKind
from .pool import PoolConfig, WorkerPool
from .protocol import (
    ProtocolError,
    Request,
    Response,
    error_response,
    json_response,
    read_request,
    write_response,
)

__all__ = ["ServeConfig", "EvalServer"]


@dataclass
class ServeConfig:
    """Tunable policy of one :class:`EvalServer`."""

    host: str = "127.0.0.1"
    port: int = 8349
    max_batch: int = 16          # blocks per /v1/idct batch window
    batch_wait_s: float = 0.005  # max extra latency a request may wait
    max_inflight: int = 64       # admitted compute requests (429 past this)
    max_jobs: int = 8            # queued+running sweep jobs (429 past this)
    request_budget_s: float | None = None  # per-request wall budget (504)
    warm: tuple = ()             # design names measured at startup
    drain_grace_s: float = 30.0  # max seconds to wait for in-flight work
    obs: bool = True             # enable live metrics/span recording
    breaker_threshold: int = 5   # consecutive evaluator failures to open
    breaker_cooldown_s: float = 30.0  # open time before the half-open probe
    job_journal: str | None = None    # JSONL write-ahead journal for jobs
    resume_jobs: bool = False    # re-run journaled interrupted jobs
    workers: int = 1             # >1: pre-forked evaluator worker pool
    worker_deadline_s: float = 300.0  # per-batch wall deadline in the pool
    worker_crash_budget: int | None = None  # pool-wide deaths before 503s
    fabric_lease_s: float = 30.0  # fabric task lease before a worker is
    #                               presumed dead and the task re-queues
    fabric_backoff_s: float = 0.05  # expiry → re-queue backoff base
    api_keys: str | None = None  # keyring file (X-Api-Key -> tenant)
    tenant_quota: int | None = None   # anon concurrent-job quota
    tenant_rate: int = 0         # anon requests/s (0 = unlimited)
    tenant_burst: int = 8        # anon token-bucket burst
    tenant_weight: int = 1       # anon fair-share weight


class _Admission:
    """Bounded in-flight request counter with obs gauges."""

    def __init__(self, limit: int) -> None:
        self.limit = max(1, int(limit))
        self.inflight = 0
        self.idle = asyncio.Event()
        self.idle.set()

    def try_acquire(self) -> bool:
        if self.inflight >= self.limit:
            obs_metrics.inc("serve.rejected_total")
            return False
        self.inflight += 1
        self.idle.clear()
        obs_metrics.set_gauge("serve.queue_depth", self.inflight)
        return True

    def release(self) -> None:
        self.inflight -= 1
        obs_metrics.set_gauge("serve.queue_depth", self.inflight)
        if self.inflight == 0:
            self.idle.set()


class EvalServer:
    """One listening evaluation service over a configured Session."""

    def __init__(self, session=None, config: ServeConfig | None = None) -> None:
        if session is None:
            from ..api import Session

            session = Session()
        self.session = session
        self.config = config or ServeConfig()
        self.port: int | None = None          # actual port once listening
        self.batcher = MicroBatcher(self._run_batch,
                                    max_batch=self.config.max_batch,
                                    max_wait_s=self.config.batch_wait_s)
        anon = Tenant(weight=self.config.tenant_weight,
                      rate_per_s=self.config.tenant_rate,
                      burst=self.config.tenant_burst,
                      max_jobs=self.config.tenant_quota)
        self.keyring = (Keyring.load(self.config.api_keys, default=anon)
                        if self.config.api_keys else Keyring(default=anon))
        self.limiter = RateLimiter()
        self.jobs = JobManager(session, max_queued=self.config.max_jobs,
                               journal=self.config.job_journal,
                               resume=self.config.resume_jobs,
                               keyring=self.keyring)
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s)
        self.admission = _Admission(self.config.max_inflight)
        from ..exec.broker import TaskBroker

        self.fabric = TaskBroker(
            lease_s=self.config.fabric_lease_s,
            backoff_s=self.config.fabric_backoff_s,
            notify=self._fabric_note,
            cache=getattr(session, "cache", None))
        self._fabric_grafts: dict[str, int | None] = {}  # sweep -> span id
        self._fabric_tick: asyncio.Task | None = None
        self.pool: WorkerPool | None = None   # built in run() when workers>1
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-eval")
        self._draining = False
        self._exit: asyncio.Future | None = None
        self._started = time.monotonic()
        self._conns: set[asyncio.StreamWriter] = set()
        self._listener: asyncio.base_events.Server | None = None

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def serve_forever(self, announce=None) -> int:
        """Run until drained; returns the process exit code (0 or 3)."""
        return asyncio.run(self.run(announce=announce))

    async def run(self, announce=None) -> int:
        """Async body of :meth:`serve_forever` (tests drive this directly)."""
        loop = asyncio.get_running_loop()
        self._exit = loop.create_future()
        was_enabled = obs_trace.enabled()
        if self.config.obs:
            obs.enable()
        self._ensure_qos_series()
        try:
            for name in self.config.warm:
                await loop.run_in_executor(
                    self._compute, self.session.evaluator, name)
            if self.config.workers > 1:
                # Fork AFTER the parent's warm loop so every child
                # inherits the warm measurement memos for free.
                await self._start_pool()
            self._listener = await asyncio.start_server(
                self._handle_conn, self.config.host, self.config.port)
            self.port = self._listener.sockets[0].getsockname()[1]
            self._started = time.monotonic()
            self._fabric_tick = loop.create_task(self._fabric_expiry_loop())
            handled_signals = []
            for signum, code in ((signal.SIGTERM, 0), (signal.SIGINT, 3)):
                try:
                    loop.add_signal_handler(
                        signum, self._begin_drain, code)
                    handled_signals.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread (tests) or unsupported platform
            if announce is not None:
                announce(self.config.host, self.port)
            try:
                return await self._exit
            finally:
                for signum in handled_signals:
                    loop.remove_signal_handler(signum)
                await self._close_everything()
        finally:
            if self.config.obs and not was_enabled:
                obs.disable()

    def request_drain(self, code: int = 0) -> None:
        """Thread-safe drain trigger (what tests use instead of SIGTERM)."""
        loop = self._exit.get_loop() if self._exit is not None else None
        if loop is not None:
            loop.call_soon_threadsafe(self._begin_drain, code)

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _start_pool(self) -> None:
        """Fork the ``--workers N`` evaluator pool and warm it."""
        from ..api import canonical_name

        deadline = (self.config.request_budget_s + 5.0
                    if self.config.request_budget_s is not None
                    else self.config.worker_deadline_s)
        self.pool = WorkerPool(
            self.session.pool_init(obs=self.config.obs,
                                   budget_s=self.config.request_budget_s),
            PoolConfig(size=self.config.workers,
                       deadline_s=deadline,
                       crash_budget=self.config.worker_crash_budget))
        await self.pool.start(
            warm=tuple(canonical_name(n) for n in self.config.warm))

    def _begin_drain(self, code: int) -> None:
        if self._draining:
            return
        self._draining = True
        obs_metrics.set_gauge("serve.draining", 1)
        obs_trace.event("serve.drain", code=code)
        if self._listener is not None:
            self._listener.close()
        asyncio.get_running_loop().create_task(self._finish_drain(code))

    async def _finish_drain(self, code: int) -> None:
        grace = self.config.drain_grace_s
        try:
            await asyncio.wait_for(self.admission.idle.wait(), grace)
        except asyncio.TimeoutError:
            obs_trace.event("serve.drain_grace_expired",
                            inflight=self.admission.inflight)
        await self.batcher.drain()
        loop = asyncio.get_running_loop()
        # Finish the running sweep job, cancel queued ones (their journal
        # entries stay non-terminal: a restart reports them interrupted).
        await loop.run_in_executor(
            None, lambda: self.jobs.drain(cancel=True))
        if self.pool is not None:
            await self.pool.drain()
        # A half-open probe still in flight when the drain started has
        # been answered or failed by now; release its slot so the breaker
        # is never left wedged "probing" across a restart.
        self.breaker.cancel()
        if self._exit is not None and not self._exit.done():
            self._exit.set_result(code)

    def _fabric_note(self, event: str, **fields) -> None:
        """Journal a broker transition and count it in ``fabric.*`` obs."""
        self.jobs._journal(event, **fields)
        if event == "fabric.lease":
            obs_metrics.inc("fabric.leases")
        elif event == "fabric.expiry":
            obs_metrics.inc("fabric.expiries")
            if not fields["poisoned"]:
                obs_metrics.inc("fabric.requeues")
            obs_events.emit(event, task=fields["id"],
                            attempt=fields["attempt"])
        elif event in ("fabric.submitted", "fabric.done"):
            sweep = fields.pop("id")
            obs_events.emit(event, sweep=sweep, **fields)

    async def _fabric_expiry_loop(self) -> None:
        """Periodic lease sweep: expired leases re-queue or poison."""
        interval = min(0.5, self.config.fabric_lease_s / 4.0)
        while True:
            await asyncio.sleep(interval)
            self.fabric.expire()

    async def _close_everything(self) -> None:
        if self._fabric_tick is not None:
            self._fabric_tick.cancel()
            try:
                await self._fabric_tick
            except asyncio.CancelledError:
                pass
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        for writer in list(self._conns):
            writer.close()
        if self.pool is not None:
            await self.pool.drain()   # idempotent
        self._compute.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._conns.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    await write_response(
                        writer, error_response(str(exc), exc.status),
                        keep_alive=False)
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep = (request.keep_alive and not self._draining
                        and response.stream is None)
                await write_response(writer, response, keep_alive=keep)
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request) -> Response:
        t_wall = time.time()
        t0 = time.perf_counter()
        ctx = None
        header = request.headers.get("traceparent")
        if header:
            ctx = TraceContext.from_traceparent(header)
        try:
            request.tenant = self.keyring.resolve(
                request.headers.get("x-api-key"))
            response = await self._route(request)
        except UnknownApiKeyError as exc:
            # Never demote a typo'd credential to anonymous silently.
            response = error_response(str(exc), 403)
        except ProtocolError as exc:
            response = error_response(str(exc), exc.status)
        except Exception as exc:  # noqa: BLE001 - never kill the connection
            response = error_response(f"internal error: {exc}", 500)
        self._record_request(request, response, t_wall, t0, ctx)
        if ctx is not None:
            # Echo the caller's context so intermediaries see one trace.
            response.headers.setdefault("traceparent", ctx.to_traceparent())
        return response

    def _record_request(self, request: Request, response: Response,
                        t_wall: float, t0: float,
                        ctx: TraceContext | None = None) -> None:
        if not obs_trace.enabled():
            return
        duration = time.perf_counter() - t0
        obs_metrics.inc("serve.requests_total")
        obs_metrics.inc(f"serve.status.{response.status}")
        obs_metrics.observe("serve.request_us", round(duration * 1e6, 3))
        _root_span("serve.request",
                   {"method": request.method, "path": request.path,
                    "http_status": response.status}, ctx, t_wall, t0,
                   round(duration * 1e6, 3),
                   "ok" if response.status < 500 else "error")

    # ------------------------------------------------------------------
    # endpoints (each a coroutine of the request and, under an id
    # prefix, the id; ROUTES below maps paths and methods to them)
    # ------------------------------------------------------------------
    async def _healthz(self, request: Request) -> Response:
        return json_response({
            "status": "draining" if self._draining else "ok",
            "inflight": self.admission.inflight,
            "open_batches": self.batcher.open_windows,
            "designs": sorted(self.session.loaded_evaluators()),
            "breaker": self.breaker.state,
            "workers": (self.pool.snapshot()
                        if self.pool is not None else []),
            "fabric": self.fabric.snapshot(),
            "qos": {"tenants": self.jobs.qos_snapshot()},
            "uptime_s": round(time.monotonic() - self._started, 3),
        })

    async def _engines(self, request: Request) -> Response:
        # One-serialization-path rule: exactly the bytes that
        # `python -m repro engines --json` prints.
        from ..engines import render_engines_json

        return Response(body=render_engines_json().encode("utf-8"))

    async def _metrics(self, request: Request) -> Response:
        from ..obs.report import ensure_default_instruments, render_prometheus

        ensure_default_instruments()
        self._ensure_qos_series()
        obs_metrics.set_gauge("serve.queue_depth", self.admission.inflight)
        obs_metrics.set_gauge("serve.uptime_s",
                              round(time.monotonic() - self._started, 3))
        body = render_prometheus().encode("utf-8")
        return Response(body=body,
                        content_type="text/plain; version=0.0.4; charset=utf-8")

    def _admit(self) -> Response | None:
        """503 while draining, 429 past the queue-depth bound, else admit."""
        if self._draining:
            return error_response("server is draining", 503)
        if not self.admission.try_acquire():
            return _retry_later(error_response(
                f"overloaded: {self.admission.inflight} requests in flight "
                f"(limit {self.admission.limit})", 429))
        return None

    def _throttle(self, request: Request) -> Response | None:
        """Per-tenant token-bucket gate on the compute endpoints.

        Over the limit answers 429 immediately with the bucket's
        *computed* ``Retry-After`` — a throttled tenant is told exactly
        when its next token matures, and never holds a connection open.
        """
        tenant = getattr(request, "tenant", None)
        if tenant is None:
            return None
        retry_after = self.limiter.try_acquire(tenant)
        if retry_after is None:
            return None
        obs_metrics.inc("qos.throttled")
        obs_metrics.inc(f"qos.throttled|tenant={tenant.name}")
        obs_events.emit("qos.throttled", tenant=tenant.name,
                        path=request.path, retry_after_s=retry_after)
        return _retry_later(error_response(
            f"tenant {tenant.name!r} over its rate limit "
            f"({tenant.rate_per_s}/s, burst {tenant.burst}); "
            f"retry in {retry_after}s", 429), retry_after)

    def _ensure_qos_series(self) -> None:
        """Pre-register zero-valued per-tenant QoS counters so
        dashboards see every series from the first scrape, not only
        after the first throttle/preemption/rejection."""
        for tenant in self.keyring.all_tenants():
            for base in ("qos.throttled", "qos.preemptions",
                         "qos.quota_rejections"):
                obs_metrics.counter(f"{base}|tenant={tenant.name}")

    async def _gated(self, request: Request, work,
                     breaker: bool = False) -> Response:
        """Answer one compute request: ``await work()`` once admitted.

        The gate is the tenant's token bucket (429), then with
        ``breaker`` the evaluator circuit (503), then :meth:`_admit`
        (503 draining, 429 overloaded).  The admission slot is released
        in one ``finally``; an exception from ``work`` maps to its HTTP
        status and, with ``breaker``, counts as an evaluator failure.
        """
        rejected = self._throttle(request)
        if rejected is None and breaker:
            rejected = self._breaker_reject()
        if rejected is None:
            rejected = self._admit()
            if rejected is not None and breaker:
                # The breaker admitted (possibly its half-open probe) but
                # admission said no: the request never ran, so release
                # the probe slot without recording an outcome.
                self.breaker.cancel()
        if rejected is not None:
            return rejected
        try:
            return await work()
        except Exception as exc:  # noqa: BLE001 - mapped to HTTP below
            if breaker:
                self.breaker.record_failure(exc)
            return self._compute_error(exc)
        finally:
            self.admission.release()

    def _intake(self, request: Request) -> Response | None:
        """The sweep endpoints' gate: 503 while draining, else the
        tenant's token bucket; ``None`` admits."""
        if self._draining:
            return error_response("server is draining", 503)
        return self._throttle(request)

    async def _idct(self, request: Request) -> Response:
        payload = request.json()
        name = _required(payload, "design")
        try:
            # Resolve before the breaker/batcher are involved: a typo'd
            # engine is a client error, not an evaluator failure.
            engine = resolve_engine(payload.get("engine", "model"), "serve")
            blocks = validate_blocks(payload.get("blocks"))
        except ValueError as exc:
            return error_response(str(exc), 400)
        from ..api import canonical_name

        key = (canonical_name(name), engine)

        async def evaluate() -> Response:
            outputs = await self.batcher.submit(key, blocks)
            self.breaker.record_success()
            return json_response({"design": key[0], "engine": engine,
                                  "count": len(outputs), "outputs": outputs})

        return await self._gated(request, evaluate, breaker=True)

    def _breaker_reject(self) -> Response | None:
        """503 + ``Retry-After`` while the evaluator circuit is open."""
        retry_after = self.breaker.admit()
        if retry_after is None:
            return None
        response = error_response(
            f"evaluator circuit open after repeated failures; retry in "
            f"{retry_after:.0f}s", 503)
        response.headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
        return response

    async def _verify(self, request: Request) -> Response:
        payload = request.json()
        name = _required(payload, "design")
        try:
            engine = resolve_engine(payload.get("engine", "compiled"), "sim")
        except ValueError as exc:
            return error_response(str(exc), 400)

        async def verify() -> Response:
            try:
                measured = await self._in_compute(
                    self.session.verify, name, engine=engine)
            except EvaluationError as exc:
                if isinstance(exc, (BudgetExceeded, UsageError)):
                    raise
                return json_response({"design": name, "bit_exact": False,
                                      "error": str(exc)}, status=422)
            return json_response({"design": measured.name,
                                  "bit_exact": measured.bit_exact,
                                  "measured": measured.to_dict()})

        return await self._gated(request, verify)

    async def _measure(self, request: Request) -> Response:
        name = _required(request.json(), "design")

        async def measure() -> Response:
            measured = await self._in_compute(self.session.measure, name)
            # Byte-identical to `python -m repro measure <design> --json`.
            return Response(body=measured.to_json().encode("utf-8"))

        return await self._gated(request, measure)

    async def _submit_job(self, request: Request) -> Response:
        rejected = self._intake(request)
        if rejected is not None:
            return rejected
        payload = request.json()
        kind = payload.get("kind")
        if not isinstance(kind, str):
            return error_response("missing 'kind'", 400)
        priority = payload.get("priority")
        if priority is not None and (isinstance(priority, bool)
                                     or not isinstance(priority, int)):
            return error_response("'priority' must be an integer", 400)
        try:
            job = self.jobs.submit(kind, payload.get("params"),
                                   tenant=getattr(request, "tenant", None),
                                   priority=priority)
        except (UnknownJobKind, UsageError) as exc:
            return error_response(str(exc), 400)
        except JobQueueFull as exc:
            return _retry_later(error_response(str(exc), 429),
                                getattr(exc, "retry_after", 1))
        return json_response(job.to_dict(), status=202)

    async def _get_job(self, request: Request, job_id: str) -> Response:
        job = self.jobs.get(job_id)
        if job is None:
            return error_response(f"no such job: {job_id}", 404)
        return json_response(job.to_dict())

    async def _list_jobs(self, request: Request) -> Response:
        """Every retained job (journal-recovered ones included);
        ``?tenant=<name>`` narrows the listing to one tenant's jobs."""
        tenant = None
        if request.query:
            import urllib.parse

            params = urllib.parse.parse_qs(request.query)
            tenant = (params.get("tenant") or [None])[0]
        return json_response(
            {"jobs": [job.to_dict()
                      for job in self.jobs.list(tenant=tenant)]})

    async def _job_events(self, request: Request, job_id: str) -> Response:
        """Chunked NDJSON stream of one job's structured events.

        Replays everything captured so far (journal-recovered events
        included), then keeps the connection open pushing live events as
        the sweep emits them, closing once the job reaches a terminal
        state with nothing left to send.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return error_response(f"no such job: {job_id}", 404)

        async def stream():
            sent = 0
            while True:
                events = job.events
                while sent < len(events):
                    yield jsonl.dumps(events[sent]).encode("utf-8")
                    sent += 1
                if (job.status not in ("queued", "running")
                        and sent >= len(job.events)):
                    return
                await asyncio.sleep(0.05)

        return Response(content_type="application/x-ndjson",
                        stream=stream())

    async def _get_trace(self, request: Request, trace_id: str) -> Response:
        """The assembled span tree for one trace id."""
        from ..obs.report import span_tree_payload

        if not trace_id:
            return error_response("missing trace id", 404)
        payload = span_tree_payload(trace_id=trace_id)
        if not payload["spans"]:
            return error_response(f"no spans for trace: {trace_id}", 404)
        return json_response(payload)

    # ------------------------------------------------------------------
    # fabric task surface
    # ------------------------------------------------------------------
    async def _submit_sweep(self, request: Request) -> Response:
        from ..exec.tasks import TaskSchemaError

        rejected = self._intake(request)
        if rejected is not None:
            return rejected
        try:
            sweep_id = self.fabric.submit(
                request.json(), tenant=getattr(request, "tenant", None))
        except (ValueError, TaskSchemaError) as exc:
            return error_response(str(exc), 400)
        info = self.fabric.status(sweep_id) or {}
        if obs_trace.enabled():
            # Worker span buffers graft under this span as results arrive.
            header = request.headers.get("traceparent")
            self._fabric_grafts[sweep_id] = _root_span(
                "fabric.dispatch",
                {"sweep": sweep_id, "tasks": info.get("total", 0)},
                TraceContext.from_traceparent(header) if header else None,
                time.time(), time.perf_counter())
        return json_response({"id": sweep_id,
                              "tasks": info.get("total", 0)})

    async def _sweep_status(self, request: Request, sweep_id: str) -> Response:
        info = self.fabric.status(sweep_id)
        if info is None:
            return error_response(f"no such sweep: {sweep_id}", 404)
        return json_response(info)

    async def _sweep_results(self, request: Request,
                             sweep_id: str) -> Response:
        info = self.fabric.status(sweep_id)
        if info is None:
            return error_response(f"no such sweep: {sweep_id}", 404)
        results = self.fabric.results(sweep_id)
        if results is None:
            return error_response(
                f"sweep {sweep_id} is {info['state']}, not done", 409)
        return json_response({"id": sweep_id, "results": results})

    async def _lease_tasks(self, request: Request) -> Response:
        payload = request.json()
        worker = _required(payload, "worker")
        if self._draining:
            # A draining master hands out no new work; workers idle and
            # exit on their own schedule.
            return json_response({"leases": []})
        try:
            limit = int(payload.get("limit", 1))
        except (TypeError, ValueError):
            return error_response("bad 'limit'", 400)
        leases = self.fabric.lease(worker, limit)
        # Lets an idle `work --once` worker tell "no sweep yet" from "its
        # siblings ran every task".
        finished = sum(sweep.state != "running"
                       for sweep in self.fabric.sweeps.values())
        return json_response({"leases": leases, "finished": finished})

    async def _task_heartbeat(self, request: Request,
                              task_id: str) -> Response:
        worker = _required(request.json(), "worker")
        reply = self.fabric.heartbeat(task_id, worker)
        if reply is None:
            return error_response(f"no such task: {task_id}", 404)
        if reply.get("stale"):
            return error_response(
                f"lease on {task_id} is no longer held by {worker}", 409)
        return json_response(reply)

    async def _task_result(self, request: Request, task_id: str) -> Response:
        payload = request.json()
        worker = _required(payload, "worker")
        output = payload.get("output")
        if not isinstance(output, dict):
            return error_response("missing 'output'", 400)
        reply = self.fabric.result(task_id, worker, output,
                                   payload.get("artifacts"))
        if reply is None:
            return error_response(f"no such task: {task_id}", 404)
        if reply.get("stale"):
            return error_response(
                f"lease on {task_id} is no longer held by {worker}; "
                f"result discarded", 409)
        if obs_trace.enabled():
            obs.ingest(output, under=self._fabric_grafts.get(
                self.fabric.tasks[task_id].sweep))
        return json_response({"ok": True})

    async def _artifact(self, request: Request, key: str) -> Response:
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            return error_response(
                "artifact keys are 64 lowercase hex chars (SHA-256)", 400)
        cache = getattr(self.session, "cache", None)
        if cache is None:
            return error_response(
                "no artifact cache configured on this master", 503)
        if request.method == "GET":
            data = cache.get_blob(key)
            if data is None:
                return error_response(f"no such artifact: {key}", 404)
            return Response(body=data,
                            content_type="application/octet-stream")
        try:
            cache.put_blob(request.body, key)
        except ValueError as exc:
            # Tampered or truncated upload: the bytes do not hash to the
            # claimed address.  The cache quarantined them already.
            return error_response(str(exc), 400)
        return json_response({"key": key})

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    #: Every endpoint, in match order: (path, {method: handler}).  A path
    #: is exact or holds one ``<id>``, which matches any text and reaches
    #: the handler as its second argument.  Rows that share an id prefix
    #: share their methods, because the method is checked on the first
    #: row whose prefix matches, before its suffix is.
    ROUTES = tuple((*path.partition("<id>"), handlers) for path, handlers in (
        # liveness, drain state, breaker, workers, fabric leases, QoS
        ("/healthz", {"GET": _healthz}),
        # live obs snapshot in Prometheus text (per-design/engine series)
        ("/metrics", {"GET": _metrics}),
        # the engine registry; `python -m repro engines --json` bytes
        ("/v1/engines", {"GET": _engines}),
        # 8x8 blocks against a named design, micro-batched across requests
        ("/v1/idct", {"POST": _idct}),
        # fresh compliance verification of one design
        ("/v1/verify", {"POST": _verify}),
        # full characterization; `python -m repro measure <d> --json` bytes
        ("/v1/measure", {"POST": _measure}),
        # start an async table2/fig1 sweep; list retained jobs
        ("/v1/jobs", {"POST": _submit_job, "GET": _list_jobs}),
        # the job's NDJSON event stream: replay, then live until terminal
        ("/v1/jobs/<id>/events", {"GET": _job_events}),
        # poll a sweep job
        ("/v1/jobs/<id>", {"GET": _get_job}),
        # the assembled span tree of one trace id
        ("/v1/traces/<id>", {"GET": _get_trace}),
        # submit a distributed sweep (wire-form tasks) to the fabric broker
        ("/v1/sweeps", {"POST": _submit_sweep}),
        # a finished fabric sweep's results (409 before it is done)
        ("/v1/sweeps/<id>/results", {"GET": _sweep_results}),
        # fabric sweep status
        ("/v1/sweeps/<id>", {"GET": _sweep_status}),
        # pull-worker lease: up to N runnable tasks, each with a deadline
        ("/v1/tasks/lease", {"POST": _lease_tasks}),
        # extend a live lease mid-run
        ("/v1/tasks/<id>/heartbeat", {"POST": _task_heartbeat}),
        # a task's record + obs buffers + artifact manifest (stale: 409)
        ("/v1/tasks/<id>/result", {"POST": _task_result}),
        # fetch, or upload, a content-addressed blob; an upload whose
        # bytes do not hash to the key is rejected and quarantined
        ("/v1/artifacts/<id>", {"GET": _artifact, "PUT": _artifact}),
    ))

    async def _route(self, request: Request) -> Response:
        path, method = request.path, request.method
        for prefix, ident, suffix, handlers in self.ROUTES:
            if not (path.startswith(prefix) if ident else path == prefix):
                continue
            if method not in handlers:
                return error_response("use " + " or ".join(handlers), 405)
            rest = path[len(prefix):]
            if rest.endswith(suffix):
                ids = (rest[:len(rest) - len(suffix)],) if ident else ()
                return await handlers[method](self, request, *ids)
        return error_response(f"no such endpoint: {method} {path}", 404)

    # ------------------------------------------------------------------
    # compute plumbing
    # ------------------------------------------------------------------
    async def _run_batch(self, key, blocks):
        """Batcher runner: one evaluation on the compute thread, or — with
        ``--workers N`` — on the affine pool worker."""
        design, engine = key
        if self.pool is not None:
            # A half-open breaker probe must test a *fresh* worker, not
            # the slot whose affinity just accumulated the failures.
            return await self.pool.evaluate(
                design, engine, blocks,
                prefer_fresh=self.breaker.state == "half-open")
        return await self._in_compute(self._evaluate_sync, design, engine,
                                      blocks)

    def _evaluate_sync(self, design: str, engine: str, blocks):
        evaluator = self.session.evaluator(design)
        with res_budget.limit(self._request_budget(evaluator.name)):
            return evaluator.evaluate(blocks, engine=engine)

    async def _in_compute(self, fn, *args, **kwargs):
        loop = asyncio.get_running_loop()
        if kwargs:
            import functools

            fn = functools.partial(fn, *args, **kwargs)
            return await loop.run_in_executor(self._compute, fn)
        return await loop.run_in_executor(self._compute, fn, *args)

    def _request_budget(self, design: str):
        if self.config.request_budget_s is None:
            return None
        return res_budget.Budget(wall_s=self.config.request_budget_s,
                                 design=design, phase="serve.request")

    def _compute_error(self, exc: BaseException) -> Response:
        if isinstance(exc, (UsageError, ValueError)):
            return error_response(str(exc), 400)
        if isinstance(exc, BudgetExceeded):
            return error_response(f"request budget exhausted: {exc}", 504)
        if isinstance(exc, WorkerCrashError):
            # The request killed its workers (or the pool's crash budget
            # is spent) — honest unavailability, never a hung connection.
            return error_response(str(exc), 503)
        if isinstance(exc, EvaluationError):
            return error_response(str(exc), 422)
        return error_response(f"internal error: {exc}", 500)


def _root_span(name: str, attrs: dict, ctx: TraceContext | None,
               t_wall: float, t_start: float, dur_us: float = 0.0,
               status: str = "ok") -> int:
    """Ingest one parentless span record; returns its local span id.

    Ingested rather than opened on the tracer stack: the stack belongs to
    the compute thread's evaluation spans, which requests overlap
    arbitrarily.  A caller ``traceparent`` stamps its trace id; otherwise
    the ingest backfills the server's own trace.  Reading the tracer's
    next-id counter first (safe: the event loop is the only writer) tells
    us the id the ingest assigns.
    """
    span_id = obs_trace.TRACER._next_id
    obs_trace.TRACER.ingest([{
        "span_id": 1, "parent_id": None, "depth": 0, "name": name,
        "t_wall": round(t_wall, 6), "t_start": round(t_start, 6),
        "dur_us": dur_us, "kind": "span", "status": status, "attrs": attrs,
        "trace_id": ctx.trace_id if ctx is not None else "",
    }])
    return span_id


def _required(payload: dict, name: str) -> str:
    """The request's required non-empty string field ``name`` (400 if
    it is missing or not a string)."""
    value = payload.get(name)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"missing {name!r}")
    return value


def _retry_later(response: Response, seconds: int = 1) -> Response:
    """Stamp a computed ``Retry-After`` on an admission-control 429."""
    response.headers["Retry-After"] = str(max(1, int(seconds)))
    return response
