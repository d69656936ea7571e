"""Profiling report layer: flame-style text summary and file exporters.

Consumes the default tracer/registry (or explicit ones) and renders:

* :func:`render_profile` — indented span tree with durations and percent
  of total, followed by a metrics summary (the ``python -m repro profile``
  output);
* :func:`phase_breakdown` — per-design, per-phase wall time aggregated
  from spans, attributing each span to its nearest ancestor carrying a
  ``design`` attribute (this is what ``table2 --metrics`` exports);
* :func:`write_trace_jsonl` / :func:`write_metrics_json` — the
  ``trace.jsonl`` / ``metrics.json`` artifacts;
* :func:`render_prometheus` — the registry snapshot in Prometheus text
  exposition format (what ``GET /metrics`` on the evaluation service
  returns).
"""

from __future__ import annotations

import json
import re

from . import metrics as _metrics
from . import trace as _trace
from .trace import SpanRecord

__all__ = [
    "render_profile",
    "phase_breakdown",
    "write_trace_jsonl",
    "write_metrics_json",
    "render_prometheus",
    "ensure_default_instruments",
    "span_tree_payload",
    "profile_payload",
    "render_profile_json",
    "render_tree",
]


def _span_tree(events: list[SpanRecord]):
    """(roots, children-by-id), each level sorted by start time."""
    children: dict[int, list[SpanRecord]] = {}
    by_id = {rec.span_id: rec for rec in events}
    roots: list[SpanRecord] = []
    for rec in events:
        if rec.parent_id is not None and rec.parent_id in by_id:
            children.setdefault(rec.parent_id, []).append(rec)
        else:
            roots.append(rec)
    for bucket in children.values():
        bucket.sort(key=lambda r: r.t_start)
    roots.sort(key=lambda r: r.t_start)
    return roots, children


def _attr_summary(attrs: dict, limit: int = 4) -> str:
    parts = []
    for key, value in attrs.items():
        text = f"{key}={value}"
        if len(text) > 40:
            text = text[:37] + "..."
        parts.append(text)
        if len(parts) >= limit:
            break
    return "  ".join(parts)


def render_profile(
    events: list[SpanRecord] | None = None,
    registry: _metrics.MetricsRegistry | None = None,
) -> str:
    """Flame-style text profile plus a metrics summary."""
    if events is None:
        events = _trace.events()
    if registry is None:
        registry = _metrics.REGISTRY
    spans = [rec for rec in events if rec.kind == "span"]
    roots, children = _span_tree(spans)
    total = sum(rec.duration for rec in roots) or 1e-12

    lines = ["== phase profile =="]
    if not spans:
        lines.append("(no spans recorded — is tracing enabled?)")

    def emit(rec: SpanRecord, depth: int) -> None:
        pct = rec.duration / total * 100
        flag = "" if rec.status == "ok" else "  [ERROR]"
        name = "  " * depth + rec.name
        lines.append(
            f"{name:<36s} {rec.duration * 1000:10.2f} ms {pct:6.1f}%"
            f"  {_attr_summary(rec.attrs)}{flag}"
        )
        for child in children.get(rec.span_id, ()):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)

    snap = registry.snapshot()
    if snap["counters"] or snap["gauges"] or snap["histograms"]:
        lines.append("")
        lines.append("== metrics ==")
        for name, value in snap["counters"].items():
            lines.append(f"{name:<36s} {value:>14,d}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name:<36s} {value:>14g}")
        for name, hist in snap["histograms"].items():
            lines.append(
                f"{name:<36s} count={hist['count']} mean={hist['mean']:g} "
                f"min={hist['min']:g} max={hist['max']:g}"
            )
    return "\n".join(lines)


def phase_breakdown(
    events: list[SpanRecord] | None = None,
) -> dict[str, dict[str, dict]]:
    """``{design: {phase: {"calls": n, "seconds": s}}}`` from span records.

    A span's design is its own ``design`` attribute or the nearest
    ancestor's; spans with no design in scope land under ``"-"``.
    """
    if events is None:
        events = _trace.events()
    spans = [rec for rec in events if rec.kind == "span"]
    by_id = {rec.span_id: rec for rec in spans}

    def design_of(rec: SpanRecord) -> str:
        node: SpanRecord | None = rec
        while node is not None:
            design = node.attrs.get("design")
            if design:
                return str(design)
            node = by_id.get(node.parent_id) if node.parent_id else None
        return "-"

    out: dict[str, dict[str, dict]] = {}
    for rec in spans:
        slot = out.setdefault(design_of(rec), {}).setdefault(
            rec.name, {"calls": 0, "seconds": 0.0}
        )
        slot["calls"] += 1
        slot["seconds"] += rec.duration
    for phases in out.values():
        for slot in phases.values():
            slot["seconds"] = round(slot["seconds"], 6)
    return out


def span_tree_payload(
    events: list[SpanRecord] | None = None,
    trace_id: str | None = None,
) -> dict:
    """JSON-ready nested span tree (what ``GET /v1/traces/<id>`` returns).

    With ``trace_id`` given, only records stamped with that trace are
    assembled; otherwise the whole buffer.  Each node carries its own
    timing/attrs plus recursively nested ``children``.
    """
    if events is None:
        events = _trace.events()
    if trace_id:
        events = [rec for rec in events if rec.trace_id == trace_id]
    spans = [rec for rec in events if rec.kind == "span"]
    roots, children = _span_tree(spans)

    def node(rec: SpanRecord) -> dict:
        return {
            "span_id": rec.span_id,
            "name": rec.name,
            "t_wall": round(rec.t_wall, 6),
            "dur_us": round(rec.duration * 1e6, 3),
            "status": rec.status,
            "attrs": rec.attrs,
            "children": [node(child)
                         for child in children.get(rec.span_id, ())],
        }

    return {"trace": trace_id or "", "count": len(spans),
            "spans": [node(root) for root in roots]}


def render_tree(
    events: list[SpanRecord] | None = None,
    trace_id: str | None = None,
) -> str:
    """Text rendering of one trace's span tree (the ``obs tree`` CLI)."""
    payload = span_tree_payload(events, trace_id)
    lines = [f"== trace {payload['trace'] or '(all)'} — "
             f"{payload['count']} spans =="]
    if not payload["spans"]:
        lines.append("(no spans recorded for this trace)")

    def emit(node: dict, depth: int) -> None:
        name = "  " * depth + node["name"]
        flag = "" if node["status"] == "ok" else "  [ERROR]"
        lines.append(f"{name:<36s} {node['dur_us'] / 1000:10.2f} ms"
                     f"  {_attr_summary(node['attrs'])}{flag}")
        for child in node["children"]:
            emit(child, depth + 1)

    for root in payload["spans"]:
        emit(root, 0)
    return "\n".join(lines)


def profile_payload(
    events: list[SpanRecord] | None = None,
    registry: _metrics.MetricsRegistry | None = None,
) -> dict:
    """The machine-readable profile report (``profile <design> --json``).

    One serialization path: the span tree nests through
    :func:`span_tree_payload`, per-phase totals come from
    :func:`phase_breakdown`, and ``total_ms`` sums the same root spans
    the text report's percent column divides by — the two reports are
    views of identical numbers.
    """
    if events is None:
        events = _trace.events()
    registry = registry or _metrics.REGISTRY
    spans = [rec for rec in events if rec.kind == "span"]
    roots, _children = _span_tree(spans)
    total = sum(rec.duration for rec in roots)
    return {
        "total_ms": round(total * 1000, 3),
        "profile": span_tree_payload(events)["spans"],
        "phases": phase_breakdown(events),
        "metrics": registry.snapshot(),
    }


def render_profile_json(
    events: list[SpanRecord] | None = None,
    registry: _metrics.MetricsRegistry | None = None,
    extra: dict | None = None,
) -> str:
    """Canonical JSON text of :func:`profile_payload` (sorted keys)."""
    payload = dict(extra or {})
    payload.update(profile_payload(events, registry))
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _prom_name(name: str, prefix: str = "repro_") -> str:
    """Map a dotted instrument name onto the Prometheus grammar."""
    return prefix + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _prom_series(name: str) -> tuple[str, str, str]:
    """``(family, labels, series)`` for a possibly-labelled instrument.

    Labelled instruments encode their labels after a ``|`` in the
    registry name (``serve.blocks_total|design=verilog-initial,
    engine=model``); the family is the base name, the labels render in
    the conventional ``{k="v",…}`` form.
    """
    base, _, label_spec = name.partition("|")
    family = _prom_name(base)
    if not label_spec:
        return family, "", family
    pairs = []
    for item in label_spec.split(","):
        key, _, value = item.partition("=")
        pairs.append(f'{re.sub(r"[^a-zA-Z0-9_]", "_", key.strip())}'
                     f'="{value.strip()}"')
    labels = "{" + ",".join(pairs) + "}"
    return family, labels, family + labels


#: Explanations emitted as ``# HELP`` lines (one per metric family).
PROM_HELP = {
    "cache.hits": "Artifact-cache reads satisfied from disk.",
    "cache.misses": "Artifact-cache reads that fell through to recompute.",
    "cache.puts": "Artifacts written to the content-addressed cache.",
    "cache.corrupt": "Cache artifacts failing checksum verification, "
                     "quarantined to <cache>/corrupt/.",
    "exec.worker_restarts": "Local sweep workers that died; each one's "
                            "task was re-queued or quarantined.",
    "exec.poisoned_tasks": "Tasks quarantined as FAILED cells after "
                           "repeatedly killing workers.",
    "resilience.failures": "Design points that exhausted every attempt.",
    "resilience.retries": "Per-design measurement retries.",
    "resilience.degraded_runs": "Final attempts under a degraded config.",
    "serve.requests_total": "HTTP requests handled by the evaluation "
                            "service.",
    "serve.rejected_total": "Requests turned away by admission control.",
    "serve.sim_invocations": "Evaluator invocations (batches, not blocks).",
    "serve.blocks_total": "8x8 blocks evaluated across all batches.",
    "serve.breaker_opened": "Circuit-breaker open transitions.",
    "serve.queue_depth": "Admitted compute requests currently in flight.",
    "serve.batch_size": "Blocks coalesced per evaluator invocation.",
    "serve.worker_restarts": "Serve pool evaluator workers respawned.",
    "serve.worker_kills": "Serve pool evaluator worker deaths observed.",
    "fabric.leases": "Sweep tasks leased to fabric pull-workers.",
    "fabric.expiries": "Fabric task leases that expired (worker presumed "
                       "dead).",
    "fabric.requeues": "Expired fabric tasks re-queued for another worker.",
    "sweep.cells_done": "Sweep design points committed (per design).",
    "qos.throttled": "Requests rejected 429 by a tenant's token bucket "
                     "(per-tenant series carry a tenant label).",
    "qos.preemptions": "Running sweeps paused at a cell boundary for a "
                       "higher-priority arrival (per-tenant labelled).",
    "qos.quota_rejections": "Job submissions rejected 429 over a "
                            "tenant's concurrent-job quota "
                            "(per-tenant labelled).",
}

#: Counters pre-registered before serving ``/metrics`` so supervision
#: and integrity counts are visible (as honest zeros) from the first
#: scrape, not only after the first crash/corruption.
DEFAULT_COUNTERS = (
    "exec.worker_restarts",
    "exec.poisoned_tasks",
    "cache.corrupt",
    "cache.hits",
    "cache.misses",
    "resilience.failures",
    "serve.worker_restarts",
    "serve.worker_kills",
    "fabric.leases",
    "fabric.expiries",
    "fabric.requeues",
    "qos.throttled",
    "qos.preemptions",
    "qos.quota_rejections",
)


def ensure_default_instruments(
        registry: _metrics.MetricsRegistry | None = None) -> None:
    """Pre-register :data:`DEFAULT_COUNTERS` (the serve ``/metrics``
    endpoint calls this so zero-valued supervision counters render)."""
    registry = registry or _metrics.REGISTRY
    for name in DEFAULT_COUNTERS:
        registry.counter(name)


def render_prometheus(registry: _metrics.MetricsRegistry | None = None) -> str:
    """The registry snapshot in Prometheus text exposition format.

    Dotted instrument names become underscored with a ``repro_`` prefix
    (``cache.hits`` → ``repro_cache_hits``); a ``|k=v,…`` suffix becomes
    labels (``serve.blocks_total|design=d,engine=model`` →
    ``repro_serve_blocks_total{design="d",engine="model"}``), with one
    ``# HELP``/``# TYPE`` header per family.  Histograms keep their
    power-of-two buckets, emitted cumulatively with the conventional
    ``_bucket{le=…}`` / ``_sum`` / ``_count`` series.
    """
    snap = (registry or _metrics.REGISTRY).snapshot()
    lines: list[str] = []
    seen_families: set[str] = set()

    def header(name: str, family: str, kind: str) -> None:
        if family in seen_families:
            return
        seen_families.add(family)
        help_text = PROM_HELP.get(name.partition("|")[0])
        if help_text:
            lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} {kind}")

    for name, value in snap["counters"].items():
        family, _labels, series = _prom_series(name)
        header(name, family, "counter")
        lines.append(f"{series} {value}")
    for name, value in snap["gauges"].items():
        family, _labels, series = _prom_series(name)
        header(name, family, "gauge")
        lines.append(f"{series} {value:g}")
    for name, hist in snap["histograms"].items():
        family, labels, _series = _prom_series(name)
        header(name, family, "histogram")
        label_prefix = labels[:-1] + "," if labels else "{"
        running = 0
        for le, count in sorted((int(k), v) for k, v in hist["buckets"].items()):
            running += count
            lines.append(f'{family}_bucket{label_prefix}le="{le}"}} {running}')
        lines.append(f'{family}_bucket{label_prefix}le="+Inf"}} '
                     f'{hist["count"]}')
        lines.append(f"{family}_sum{labels} {hist['sum']:g}")
        lines.append(f"{family}_count{labels} {hist['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def write_trace_jsonl(path, tracer: _trace.Tracer | None = None) -> int:
    """Export the trace ring buffer as JSON lines; returns record count."""
    return (tracer or _trace.TRACER).export_jsonl(path)


def write_metrics_json(
    path,
    registry: _metrics.MetricsRegistry | None = None,
    events: list[SpanRecord] | None = None,
    extra: dict | None = None,
) -> dict:
    """Write ``{metrics, phases, **extra}`` as pretty JSON."""
    payload = dict(extra or {})
    payload["metrics"] = (registry or _metrics.REGISTRY).snapshot()
    payload["phases"] = phase_breakdown(events)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
