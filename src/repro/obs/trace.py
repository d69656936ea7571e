"""Structured span/event tracer with a bounded in-memory ring buffer.

Spans nest lexically::

    with trace.span("elaborate", design="vlog-opt"):
        ...

Each completed span records wall-clock and monotonic start timestamps, a
duration, free-form attributes, and its position in the span tree
(``span_id``/``parent_id``/``depth``).  Records land in a ``deque`` ring
buffer (oldest evicted first) and export as JSON lines.

The tracer is deliberately single-threaded (like the rest of the
framework) and zero-dependency.  While :func:`enabled` is false,
:meth:`Tracer.span` returns one shared no-op context manager and
:meth:`Tracer.event` returns before touching its arguments' storage, so
disabled-mode overhead is a single global read per call site.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field

from ..core import jsonl

__all__ = [
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "TRACER",
    "enable",
    "disable",
    "enabled",
    "span",
    "event",
    "events",
    "clear",
    "ingest",
    "new_trace",
    "current_context",
    "to_jsonl",
    "export_jsonl",
]

_ENABLED = False


def enable() -> None:
    """Turn tracing (and guarded metrics) on, process-wide."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn tracing off; already-recorded events are kept."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _ENABLED


@dataclass(frozen=True)
class TraceContext:
    """W3C-traceparent-style causal context crossing process boundaries.

    ``trace_id`` names one logical operation (a CLI invocation, an HTTP
    request, a sweep job); ``span_id`` is the id — in the *minting*
    process's id space — of the span that parented the remote work.  The
    pair is what a :class:`~repro.exec.tasks.SweepTask` carries into pool
    workers and what the serve tier reads from/writes to ``traceparent``
    headers, so merged spans assemble into one causally-linked tree
    instead of disjoint per-process fragments.
    """

    trace_id: str
    span_id: int | None = None

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header form (version 00, sampled)."""
        parent = (self.span_id or 0) & 0xFFFFFFFFFFFFFFFF
        return f"00-{self.trace_id:0>32s}-{parent:016x}-01"

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext | None":
        """Parse a ``traceparent`` header; ``None`` if malformed."""
        parts = header.strip().split("-")
        if len(parts) != 4 or len(parts[1]) != 32 or len(parts[2]) != 16:
            return None
        try:
            span_id = int(parts[2], 16)
            int(parts[1], 16)
        except ValueError:
            return None
        return cls(trace_id=parts[1].lstrip("0") or "0",
                   span_id=span_id or None)


def mint_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, never reused)."""
    return os.urandom(8).hex()


@dataclass
class SpanRecord:
    """One completed span (or point event, ``duration == 0``)."""

    span_id: int
    parent_id: int | None
    depth: int
    name: str
    t_wall: float          # epoch seconds at span start
    t_start: float         # monotonic seconds at span start
    duration: float        # seconds; 0.0 for point events
    kind: str = "span"     # "span" | "event"
    status: str = "ok"     # "error" when an exception escaped the span
    attrs: dict = field(default_factory=dict)
    trace_id: str = ""     # the TraceContext trace this span belongs to

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "t_wall": round(self.t_wall, 6),
            "t_start": round(self.t_start, 6),
            "dur_us": round(self.duration * 1e6, 3),
            "kind": self.kind,
            "status": self.status,
            "attrs": self.attrs,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            depth=data["depth"],
            name=data["name"],
            t_wall=data["t_wall"],
            t_start=data["t_start"],
            duration=data["dur_us"] / 1e6,
            kind=data.get("kind", "span"),
            status=data.get("status", "ok"),
            attrs=data.get("attrs", {}),
            trace_id=data.get("trace_id", ""),
        )


class _NullSpan:
    """Shared do-nothing context manager for disabled mode."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _Span:
    """A live span: context manager that records itself on exit."""

    __slots__ = ("_tracer", "_t0", "name", "attrs", "span_id",
                 "parent_id", "depth", "t_wall")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_Span":
        """Attach attributes discovered mid-span (e.g. result sizes)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self.parent_id = stack[-1].span_id if stack else None
        self.depth = len(stack)
        self.span_id = tracer._next_id
        tracer._next_id += 1
        stack.append(self)
        self.t_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        duration = time.perf_counter() - self._t0
        tracer = self._tracer
        if self in tracer._stack:
            # Pop abandoned children (spans opened inside this one that an
            # exception skipped past) along with this span itself.
            while tracer._stack.pop() is not self:
                pass
        tracer._events.append(SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            depth=self.depth,
            name=self.name,
            t_wall=self.t_wall,
            t_start=self._t0,
            duration=duration,
            status="error" if exc_type is not None else "ok",
            attrs=self.attrs,
            trace_id=tracer.trace_id,
        ))
        return False


class Tracer:
    """Ring-buffered span recorder (one global instance: :data:`TRACER`)."""

    def __init__(self, capacity: int = 65536) -> None:
        self._events: deque[SpanRecord] = deque(maxlen=capacity)
        self._stack: list[_Span] = []
        self._next_id = 1
        self.trace_id = ""

    # -- trace context -------------------------------------------------
    def new_trace(self, trace_id: str | None = None) -> str:
        """Start (or adopt) a trace: subsequent records carry this id."""
        self.trace_id = trace_id or mint_trace_id()
        return self.trace_id

    def current_context(self) -> TraceContext:
        """The context a child process/request should inherit: the
        current trace id plus the innermost open span's id (``None`` at
        the top level)."""
        span_id = self._stack[-1].span_id if self._stack else None
        return TraceContext(trace_id=self.trace_id, span_id=span_id)

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs) -> _Span | _NullSpan:
        """Open a nested span; a no-op singleton while disabled."""
        if not _ENABLED:
            return NULL_SPAN
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous point event under the current span."""
        if not _ENABLED:
            return
        parent = self._stack[-1].span_id if self._stack else None
        self._events.append(SpanRecord(
            span_id=self._next_id,
            parent_id=parent,
            depth=len(self._stack),
            name=name,
            t_wall=time.time(),
            t_start=time.perf_counter(),
            duration=0.0,
            kind="event",
            attrs=attrs,
            trace_id=self.trace_id,
        ))
        self._next_id += 1

    # -- inspection / export -------------------------------------------
    def events(self) -> list[SpanRecord]:
        """Completed records, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._stack.clear()
        self._next_id = 1
        self.trace_id = ""

    def ingest(self, records: list[dict],
               under: int | None = None) -> int:
        """Merge foreign span records (a worker's shipped buffer).

        Records must be in the :meth:`SpanRecord.to_dict` shape; buffer
        order (innermost spans complete first) is fine — ids are mapped
        in a first pass, so a child may precede its parent.  Span ids
        are renumbered into this tracer's id space, preserving
        parent/child structure.  A record whose parent is outside the
        batch is attached to the local span ``under`` (the cross-process
        graft point — how a worker's ``exec.task`` subtree hangs off the
        parent's dispatch span) or becomes a root when ``under`` is
        ``None``.  The merge is deterministic given the input order,
        which is how the sharded sweep executor keeps trace artifacts
        reproducible: it ingests worker buffers in task order, not
        completion order.
        """
        parsed = [SpanRecord.from_dict(data) for data in records]
        id_map: dict[int, int] = {}
        for rec in parsed:
            id_map[rec.span_id] = self._next_id
            self._next_id += 1
        for rec in parsed:
            rec.span_id = id_map[rec.span_id]
            if rec.parent_id is not None:
                rec.parent_id = id_map.get(rec.parent_id, under)
            elif under is not None:
                rec.parent_id = under
            if not rec.trace_id:
                rec.trace_id = self.trace_id
            self._events.append(rec)
        return len(records)

    def to_jsonl(self) -> str:
        return "".join(jsonl.dumps(rec.to_dict()) for rec in self._events)

    def export_jsonl(self, path) -> int:
        """Write all records as JSON lines; returns the record count."""
        return jsonl.write(path, (rec.to_dict() for rec in self._events))


TRACER = Tracer()

# Module-level conveniences bound to the default tracer.
span = TRACER.span
event = TRACER.event
events = TRACER.events
clear = TRACER.clear
ingest = TRACER.ingest
new_trace = TRACER.new_trace
current_context = TRACER.current_context
to_jsonl = TRACER.to_jsonl
export_jsonl = TRACER.export_jsonl
