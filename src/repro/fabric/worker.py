"""The ``python -m repro work`` pull-worker loop.

A pull-worker owns no scheduling state: it asks the master for work
(``POST /v1/tasks/lease``), measures each leased task exactly as a
local ``--jobs N`` worker does (:func:`repro.exec.worker.run_task`),
uploads any cache artifacts it produced (``PUT /v1/artifacts/<key>``,
content-addressed), posts the result, and asks again.  A background
heartbeat extends the lease while a long measurement runs; if the
worker dies instead (SIGKILL, OOM, power loss), the heartbeat stops,
the lease expires, and the master re-queues the task — no worker-side
cleanup is ever required for correctness.

Process bootstrap is the shared :class:`repro.exec.worker.WorkerContext`
(cache handle, tracing off by default — leases carry the sweep's trace
flag per task — and an optional chaos policy for drills), so a
pull-worker cannot drift from the local worker flavors.

``run_worker_fleet`` is the ``--parallel N`` form, run by the same
:func:`~repro.resilience.supervise.supervise_fleet` as local ``--jobs
N``: it respawns workers that die (the ``chaos fabric-kill`` drill
SIGKILLs them mid-lease on purpose) under a crash budget.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time

from .. import cache as cache_mod
from ..core.errors import UsageError, WorkerCrashError
from ..exec import worker as worker_mod
from ..exec.worker import WorkerContext
from ..resilience.supervise import (
    CrashBudget,
    default_crash_budget,
    supervise_fleet,
)
from .client import FabricClient

__all__ = ["run_worker", "run_worker_fleet"]


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _heartbeat_loop(client: FabricClient, task_id: str, worker_id: str,
                    period_s: float, stop: threading.Event) -> None:
    while not stop.wait(period_s):
        try:
            status, reply = client.request(
                "POST", f"/v1/tasks/{task_id}/heartbeat",
                {"worker": worker_id})
        except OSError:
            continue  # transient wire trouble; the next beat retries
        if status != 200 or (isinstance(reply, dict) and reply.get("stale")):
            return    # lease already re-queued; stop flogging it


def _upload_artifacts(client: FabricClient, cache, mark: int) -> list[dict]:
    """Ship every cache entry written since ``mark``; returns the manifest."""
    manifest: list[dict] = []
    if cache is None:
        return manifest
    for relpath in cache.written[mark:]:
        try:
            with open(os.path.join(cache.root, relpath), "rb") as handle:
                data = handle.read()
        except OSError:
            continue
        key = hashlib.sha256(data).hexdigest()
        try:
            status, _ = client.request("PUT", f"/v1/artifacts/{key}",
                                       body=data)
        except OSError:
            continue
        if status in (200, 201):
            manifest.append({"path": relpath, "key": key})
    return manifest


def _run_lease(client: FabricClient, worker_id: str, lease: dict) -> None:
    payload = worker_mod.lease_payload(lease)
    cache = cache_mod.active()
    mark = len(cache.written) if cache is not None else 0
    period = max(0.05, float(lease.get("deadline_s") or 30.0) / 3.0)
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(client, lease["id"], worker_id, period, stop), daemon=True)
    beat.start()
    try:
        output = worker_mod.run_task(payload)
    finally:
        stop.set()
        beat.join(timeout=period + 1.0)
    artifacts = _upload_artifacts(client, cache, mark)
    client.request("POST", f"/v1/tasks/{lease['id']}/result",
                   {"worker": worker_id, "output": output,
                    "artifacts": artifacts})


def run_worker(master: str, worker_id: str | None = None, *,
               batch: int = 1, cache_dir: str | None = None,
               chaos=None, poll_s: float = 0.2,
               max_idle_s: float | None = None, once: bool = False,
               bootstrap: bool = True,
               client: FabricClient | None = None) -> int:
    """Pull-and-run until the master goes away; returns tasks completed.

    ``once`` returns after the first idle poll that follows completed
    work, this worker's or a finished sweep on the master (the
    smoke-test form); ``max_idle_s`` bounds how long a worker
    waits for its first task.  ``bootstrap=False`` skips the
    process-wide :class:`WorkerContext` install (for in-process tests
    that must not clobber the host's obs/cache state).
    """
    if bootstrap:
        WorkerContext(cache_dir=cache_dir, trace=False, chaos=chaos).apply()
    client = client or FabricClient(master)
    worker_id = worker_id or _default_worker_id()
    completed = 0
    connected = False
    idle_since: float | None = None
    while True:
        try:
            status, reply = client.request(
                "POST", "/v1/tasks/lease",
                {"worker": worker_id, "limit": max(1, int(batch))})
        except OSError as exc:
            if not connected:
                raise UsageError(
                    f"cannot reach fabric master at {master}: {exc}")
            return completed   # master gone: a worker has nothing to do
        connected = True
        if not isinstance(reply, dict):
            reply = {}
        leases = reply.get("leases") or []
        if status != 200 or not leases:
            if once and (completed or reply.get("finished")):
                return completed
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if max_idle_s is not None and now - idle_since >= max_idle_s:
                return completed
            time.sleep(poll_s)
            continue
        idle_since = None
        for lease in leases:
            _run_lease(client, worker_id, lease)
            completed += 1


def run_worker_fleet(master: str, parallel: int, **kwargs) -> int:
    """Fork ``parallel`` pull-workers; respawn the ones that die.

    A child exiting cleanly (the master is gone, or ``once`` /
    ``max_idle_s`` fired) retires only its own slot: its siblings finish
    their leases, and the fleet returns 0 once every slot has retired.
    """
    parallel = max(1, int(parallel))
    if parallel == 1:
        return run_worker(master, **kwargs)

    def child(slot: int, _conn) -> None:
        run_worker(master, worker_id=f"{_default_worker_id()}.{slot}",
                   **kwargs)

    try:
        supervise_fleet(parallel, child,
                        CrashBudget(default_crash_budget(8 * parallel)))
    except WorkerCrashError as exc:
        raise UsageError(f"fabric workers: {exc.message}") from exc
    return 0
