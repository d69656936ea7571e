"""Structured event log: typed, trace-stamped, append-only.

Where spans answer *how long*, events answer *what happened*: each entry
is one JSON-ready dict with a monotonically increasing ``seq``, a wall
timestamp, a ``type`` from a small vocabulary (``cell.done``,
``cell.retry``, ``cell.degrade``, ``phase.start``/``phase.end``,
``worker.restart``, ``worker.poison``, ``cache.corrupt``,
``breaker.state``, ``chaos.inject``, …), the emitting trace context
(``trace`` id + innermost open ``span`` id), and free-form fields.

The log is the substrate for three consumers:

* the ``obs tail`` CLI reads the JSONL file an attached sink appends to
  (``--events PATH`` on ``table2`` and ``fig1``);
* ``GET /v1/jobs/<id>/events`` streams per-job events live (the
  :class:`~repro.serve.jobs.JobManager` subscribes and scopes);
* sharded sweep workers ship their buffers back for a deterministic
  task-order :meth:`EventLog.ingest`, exactly like span buffers.

Module-level :func:`emit` is guarded by :func:`repro.obs.trace.enabled`
— disabled mode pays one global read, records nothing, and allocates
nothing, preserving the <2% overhead guarantee.  All instance methods
are thread-safe (serve emits from the event loop, the job thread, and
the compute thread concurrently).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager

from ..core import jsonl
from .trace import TRACER, enabled

__all__ = ["EventLog", "EVENTS", "emit", "clear"]


class EventLog:
    """Ring-buffered, optionally file-backed structured event sink."""

    def __init__(self, capacity: int = 65536) -> None:
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self._sink: jsonl.Appender | None = None
        self._subscribers: list = []
        self._scope = threading.local()

    # -- recording -----------------------------------------------------
    def record(self, type_: str, **fields) -> dict:
        """Append one event (unguarded — callers own the policy).

        The event is stamped with the current trace context and any
        active :meth:`scope` fields, sequenced, mirrored to the attached
        file sink, and fanned out to subscribers.
        """
        event = {"ts": round(time.time(), 6), "type": type_}
        trace_id = TRACER.trace_id
        if trace_id:
            event["trace"] = trace_id
        stack = TRACER._stack
        if stack:
            event["span"] = stack[-1].span_id
        for frame in getattr(self._scope, "frames", ()):
            event.update(frame)
        event.update(fields)
        self._append(event)
        return event

    def _append(self, event: dict) -> None:
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            self._events.append(event)
            if self._sink is not None:
                self._sink.append(event)
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(event)

    def ingest(self, records: list[dict]) -> int:
        """Merge foreign events (a worker's shipped buffer) in order.

        Each record is re-sequenced into this log's ``seq`` space and
        picks up the caller's active scope fields, so events a pool
        worker emitted surface under the parent's job/sweep scope.
        """
        scope_fields: dict = {}
        for frame in getattr(self._scope, "frames", ()):
            scope_fields.update(frame)
        for data in records:
            event = dict(data)
            event.pop("seq", None)
            for key, value in scope_fields.items():
                event.setdefault(key, value)
            self._append(event)
        return len(records)

    # -- scoping and subscription --------------------------------------
    @contextmanager
    def scope(self, **fields):
        """Attach ``fields`` to every event this thread emits inside."""
        frames = getattr(self._scope, "frames", None)
        if frames is None:
            frames = self._scope.frames = []
        frames.append(fields)
        try:
            yield
        finally:
            frames.pop()

    @contextmanager
    def subscribe(self, callback):
        """Call ``callback(event)`` for every event while subscribed."""
        with self._lock:
            self._subscribers.append(callback)
        try:
            yield
        finally:
            with self._lock:
                self._subscribers.remove(callback)

    # -- file sink -----------------------------------------------------
    def attach(self, path) -> None:
        """Append every subsequent event to ``path`` (flushed, not synced)."""
        sink = jsonl.Appender(path, fsync=False)
        with self._lock:
            self._sink = sink

    def detach(self) -> None:
        with self._lock:
            self._sink = None

    # -- inspection / export -------------------------------------------
    def events(self, **filters) -> list[dict]:
        """Recorded events, oldest first, matching all ``filters``."""
        with self._lock:
            snapshot = list(self._events)
        if not filters:
            return snapshot
        return [event for event in snapshot
                if all(event.get(k) == v for k, v in filters.items())]

    def since(self, seq: int, **filters) -> tuple[list[dict], int]:
        """``(events with seq > given, highest seq seen)`` — the polling
        primitive behind the live ``/v1/jobs/<id>/events`` stream."""
        with self._lock:
            snapshot = list(self._events)
            latest = self._seq
        fresh = [event for event in snapshot if event["seq"] > seq
                 and all(event.get(k) == v for k, v in filters.items())]
        return fresh, latest

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._seq = 0

    def export_jsonl(self, path) -> int:
        """Write all retained events as JSON lines; returns the count."""
        return jsonl.write(path, self.events())


EVENTS = EventLog()


def emit(type_: str, **fields) -> None:
    """Record a typed event while instrumentation is enabled."""
    if enabled():
        EVENTS.record(type_, **fields)


def clear() -> None:
    EVENTS.clear()
