"""Observability substrate: structured tracing, metrics, and profiling.

The pipeline (frontend build → elaborate → synth → simulate → evaluate)
is instrumented with nested spans and named counters so that any Table II
cell or Fig. 1 point can be explained with a per-phase breakdown:

* :mod:`repro.obs.trace`   — span/event tracer with a ring buffer,
  JSON-lines export, and cross-process :class:`~repro.obs.trace.\
TraceContext` propagation (trace id + parent span id);
* :mod:`repro.obs.metrics` — counters, gauges, and log2-bucketed
  histograms in a named registry;
* :mod:`repro.obs.events`  — the structured event log: typed,
  trace-stamped JSONL events (``cell.done``, ``worker.restart``,
  ``cache.corrupt``, ``breaker.state``, …);
* :mod:`repro.obs.report`  — flame-style text profile and file exporters.

Everything is **off by default**: while disabled, ``trace.span`` returns a
shared null context manager, ``trace.event`` / ``metrics.inc`` return
immediately, and nothing is recorded, so timing-sensitive code pays one
flag check per *run*, not per cycle.  Enable with :func:`enable` (the CLI
does this for ``profile`` and the ``--trace``/``--metrics`` flags).
"""

from . import events, metrics, report, trace
from .trace import disable, enable, enabled

__all__ = ["trace", "metrics", "events", "report", "enable", "disable",
           "enabled", "clear", "ingest"]


def clear() -> None:
    """Drop all recorded events and metric values (flag is untouched)."""
    trace.clear()
    metrics.clear()
    events.clear()


def ingest(buffers: dict, under: int | None = None) -> None:
    """Merge a worker's shipped ``spans``/``events``/``metrics`` buffers;
    spans whose parent is not shipped graft under local span ``under``."""
    if buffers.get("spans"):
        trace.TRACER.ingest(buffers["spans"], under=under)
    if buffers.get("events"):
        events.EVENTS.ingest(buffers["events"])
    if buffers.get("metrics"):
        metrics.REGISTRY.merge_snapshot(buffers["metrics"])
