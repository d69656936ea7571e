"""Client side of the fabric: the HTTP wire and the sweep executor.

:class:`FabricExecutor` is the distributed implementation of the
:class:`repro.exec.executor.Executor` protocol: it serializes the
sweep's tasks into their versioned wire form, submits them to a fabric
master (``POST /v1/sweeps``), and polls until the master reports the
sweep done — pull-workers attached to that master do the measuring.
Results come back as worker-output dicts in task order, so
:class:`~repro.exec.parallel.ParallelSweepRunner` merges them through
exactly the code path a local run uses, and rendered output stays
byte-identical to a serial run.

Supervision symmetry: the master runs the same broker ledger
:class:`~repro.exec.executor.LocalExecutor` runs in-process, so
``stats["worker_restarts"]`` reports its lease expiries, and a sweep
whose expiry budget is exhausted raises
:class:`~repro.core.errors.WorkerCrashError` here, as it does locally.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse

from ..core.errors import UsageError, WorkerCrashError
from ..exec.executor import sweep_payload, task_outputs
from ..obs import trace as obs_trace

__all__ = ["FabricClient", "FabricExecutor"]


class FabricClient:
    """Minimal blocking JSON/bytes HTTP client for one fabric master."""

    def __init__(self, master: str, timeout_s: float = 60.0) -> None:
        url = master if "//" in master else f"http://{master}"
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme not in ("", "http") or not parsed.hostname:
            raise UsageError(f"unsupported fabric master URL: {master!r}")
        self.master = master
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout_s = timeout_s

    def request(self, method: str, path: str, payload: dict | None = None,
                body: bytes | None = None,
                headers: dict | None = None) -> tuple[int, object]:
        """One request/response exchange; JSON bodies decoded for the
        caller, anything else returned as raw bytes."""
        data = body
        send_headers = dict(headers or ())
        if payload is not None:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            send_headers.setdefault("Content-Type", "application/json")
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            conn.request(method, path, body=data, headers=send_headers)
            response = conn.getresponse()
            raw = response.read()
            ctype = response.headers.get("Content-Type", "")
            if "json" in ctype:
                try:
                    return response.status, json.loads(raw.decode("utf-8"))
                except ValueError:
                    return response.status, {}
            return response.status, raw
        finally:
            conn.close()


class FabricExecutor:
    """Route a sweep through a fabric master and its pull-workers."""

    def __init__(self, master: str, poll_s: float = 0.05,
                 timeout_s: float | None = None,
                 client: FabricClient | None = None,
                 api_key: str | None = None, priority: int = 0) -> None:
        self.master = master
        self.poll_s = max(0.01, float(poll_s))
        self.timeout_s = timeout_s
        self.client = client or FabricClient(master)
        self.api_key = api_key          # identifies the QoS tenant
        self.priority = int(priority)   # within-tenant sweep priority
        self.stats = {"worker_restarts": 0}

    def run(self, tasks, base, context) -> list[dict | None]:
        payload = dict(sweep_payload(tasks, base), priority=self.priority)
        headers = {}
        if self.api_key:
            headers["X-Api-Key"] = self.api_key
        if base["trace"]:
            headers["traceparent"] = \
                obs_trace.current_context().to_traceparent()
        try:
            status, reply = self.client.request(
                "POST", "/v1/sweeps", payload, headers=headers)
        except OSError as exc:
            raise UsageError(
                f"cannot reach fabric master at {self.master}: {exc}")
        if status != 200:
            raise UsageError(
                f"fabric master rejected the sweep ({status}): "
                f"{reply.get('error') if isinstance(reply, dict) else reply}")
        sweep_id = reply["id"]
        info = self._wait(sweep_id)
        self.stats["worker_restarts"] += int(info.get("expiries") or 0)
        if info["state"] == "failed":
            raise WorkerCrashError(
                info.get("error") or "fabric sweep failed",
                phase="fabric.supervise")
        status, outcomes = self.client.request(
            "GET", f"/v1/sweeps/{sweep_id}/results")
        if status != 200 or not isinstance(outcomes, dict):
            raise WorkerCrashError(
                f"fabric master lost sweep {sweep_id} ({status})",
                phase="fabric.client")
        return task_outputs(outcomes.get("results") or [])

    def _wait(self, sweep_id: str) -> dict:
        """Poll sweep status until terminal; returns the final status."""
        started = time.monotonic()
        while True:
            try:
                status, info = self.client.request(
                    "GET", f"/v1/sweeps/{sweep_id}")
            except OSError as exc:
                raise WorkerCrashError(
                    f"lost the fabric master mid-sweep: {exc}",
                    phase="fabric.client")
            if status != 200 or not isinstance(info, dict):
                raise WorkerCrashError(
                    f"fabric master lost sweep {sweep_id} ({status})",
                    phase="fabric.client")
            if info.get("state") in ("done", "failed"):
                return info
            if self.timeout_s is not None \
                    and time.monotonic() - started > self.timeout_s:
                raise WorkerCrashError(
                    f"fabric sweep {sweep_id} did not finish within "
                    f"{self.timeout_s:.0f}s "
                    f"({info.get('done')}/{info.get('total')} tasks done)",
                    phase="fabric.client")
            time.sleep(self.poll_s)
