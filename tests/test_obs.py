"""Tests for the observability substrate (``repro.obs``)."""

import json
import subprocess
import sys

import pytest

from repro import obs
from repro.cli import main
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, bucket_le
from repro.obs.report import (
    phase_breakdown,
    render_profile,
    render_prometheus,
    render_tree,
    span_tree_payload,
    write_metrics_json,
)
from repro.obs.trace import NULL_SPAN, SpanRecord, TraceContext, Tracer


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with instrumentation off and empty."""
    obs.disable()
    obs.clear()
    yield
    obs.disable()
    obs.clear()


class TestSpans:
    def test_nesting_and_ordering(self):
        obs.enable()
        with obs.trace.span("outer", design="d") as outer:
            with obs.trace.span("inner") as inner:
                obs.trace.event("tick", n=3)
            outer.set(late=True)
        records = obs.trace.events()
        # Records complete innermost-first: event, inner, then outer.
        assert [r.name for r in records] == ["tick", "inner", "outer"]
        tick, rec_inner, rec_outer = records
        assert rec_outer.parent_id is None and rec_outer.depth == 0
        assert rec_inner.parent_id == rec_outer.span_id and rec_inner.depth == 1
        assert tick.parent_id == rec_inner.span_id and tick.kind == "event"
        assert tick.duration == 0.0 and tick.attrs == {"n": 3}
        assert rec_outer.attrs == {"design": "d", "late": True}
        assert rec_outer.duration >= rec_inner.duration >= 0.0

    def test_exception_marks_error_and_unwinds(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.trace.span("boom"):
                raise ValueError("no")
        (rec,) = obs.trace.events()
        assert rec.status == "error"
        # Stack fully unwound: a new span is a root again.
        with obs.trace.span("after"):
            pass
        assert obs.trace.events()[-1].parent_id is None

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=4)
        obs.enable()
        for i in range(6):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.events()] == ["s2", "s3", "s4", "s5"]

    def test_jsonl_round_trip(self, tmp_path):
        obs.enable()
        with obs.trace.span("phase", design="vlog-opt", cycles=16):
            obs.trace.event("mark")
        path = tmp_path / "trace.jsonl"
        count = obs.trace.export_jsonl(path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == 2
        restored = [SpanRecord.from_dict(json.loads(line)) for line in lines]
        for original, copy in zip(obs.trace.events(), restored):
            assert copy.name == original.name
            assert copy.span_id == original.span_id
            assert copy.parent_id == original.parent_id
            assert copy.kind == original.kind
            assert copy.attrs == original.attrs
            assert copy.duration == pytest.approx(original.duration, abs=1e-6)


class TestMetrics:
    def test_counter_gauge_math(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 41)
        reg.set_gauge("g", 2.5)
        reg.set_gauge("g", 7.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 42}
        assert snap["gauges"] == {"g": 7.0}

    def test_histogram_buckets(self):
        assert bucket_le(0) == 1
        assert bucket_le(1) == 1
        assert bucket_le(2) == 2
        assert bucket_le(3) == 4
        assert bucket_le(1024) == 1024
        assert bucket_le(1025) == 2048
        reg = MetricsRegistry()
        for v in (1, 3, 3, 100):
            reg.observe("h", v)
        hist = reg.snapshot()["histograms"]["h"]
        assert hist["count"] == 4
        assert hist["sum"] == 107
        assert hist["min"] == 1 and hist["max"] == 100
        assert hist["mean"] == pytest.approx(26.75)
        assert hist["buckets"] == {"1": 1, "4": 2, "128": 1}

    def test_guarded_module_functions_follow_enable(self):
        obs.metrics.inc("guarded")
        assert obs.metrics.snapshot()["counters"] == {}
        obs.enable()
        obs.metrics.inc("guarded")
        assert obs.metrics.snapshot()["counters"] == {"guarded": 1}


class TestDisabledMode:
    def test_disabled_is_noop(self):
        assert not obs.enabled()
        # One shared null singleton, regardless of name/attrs.
        assert obs.trace.span("x") is obs.trace.span("y", a=1) is NULL_SPAN
        with obs.trace.span("x") as sp:
            sp.set(anything=1)
        obs.trace.event("e", n=1)
        obs.metrics.inc("c")
        obs.metrics.observe("h", 5)
        assert obs.trace.events() == []
        snap = obs.metrics.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_disabled_pipeline_records_nothing(self):
        from repro.frontends.vlog.designs import verilog_initial

        design = verilog_initial()
        from repro.eval.verify import verify_design

        verify_design(design)
        assert obs.trace.events() == []
        assert obs.metrics.snapshot()["counters"] == {}


class TestReport:
    def test_phase_breakdown_attributes_to_ancestor_design(self):
        obs.enable()
        with obs.trace.span("measure", design="d1"):
            with obs.trace.span("elaborate"):
                pass
            with obs.trace.span("synth"):
                pass
        with obs.trace.span("orphan"):
            pass
        phases = phase_breakdown()
        assert set(phases) == {"d1", "-"}
        assert set(phases["d1"]) == {"measure", "elaborate", "synth"}
        assert phases["d1"]["elaborate"]["calls"] == 1
        assert phases["-"]["orphan"]["calls"] == 1

    def test_render_profile_lists_spans_and_metrics(self):
        obs.enable()
        with obs.trace.span("top", design="d"):
            with obs.trace.span("child"):
                pass
        obs.metrics.inc("sim.cycles", 16)
        text = render_profile()
        assert "== phase profile ==" in text
        assert "top" in text and "  child" in text
        assert "sim.cycles" in text and "16" in text

    def test_write_metrics_json_payload(self, tmp_path):
        obs.enable()
        with obs.trace.span("measure", design="d1"):
            pass
        obs.metrics.inc("n", 2)
        path = tmp_path / "metrics.json"
        payload = write_metrics_json(path, extra={"run": "unit"})
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["run"] == "unit"
        assert on_disk["metrics"]["counters"] == {"n": 2}
        assert on_disk["phases"]["d1"]["measure"]["calls"] == 1


class TestCliObs:
    def test_profile_smoke(self, capsys):
        # hc-opt is the frontend-package alias for chisel-opt.
        assert main(["profile", "hc-opt"]) == 0
        out = capsys.readouterr().out
        assert "profile of chisel-opt" in out
        assert "frontend.build" in out
        assert "elaborate" in out and "synth" in out
        assert "sim.cycles" in out and "axis.stalls" in out
        # Tracing was scoped to the command.
        assert not obs.enabled()

    def test_profile_unknown_design(self, capsys):
        assert main(["profile", "nope"]) == 2

    def test_table2_metrics_export(self, capsys, tmp_path):
        from repro.eval import clear_measure_cache

        clear_measure_cache()  # a warm cache would skip the measure spans
        path = tmp_path / "out.json"
        assert main(["table2", "--tools", "Chisel/Chisel",
                     "--metrics", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"metrics", "phases"}
        designs = {d for d in payload["phases"] if d != "-"}
        assert {"chisel-initial", "chisel-opt"} <= designs
        for phases in (payload["phases"][d] for d in designs):
            assert "measure" in phases
            assert all(slot["calls"] >= 1 and slot["seconds"] >= 0.0
                       for slot in phases.values())

    def test_verify_engine_interp(self, capsys):
        assert main(["verify", "vlog-initial", "--engine", "interp"]) == 0
        out = capsys.readouterr().out
        # no engine tag in the output: every sim engine's verify stdout
        # is byte-identical (the check.sh engine smoke relies on it)
        assert "engine=" not in out and "bit-exact" in out


class TestTraceContext:
    def test_traceparent_round_trip(self):
        ctx = TraceContext(trace_id="ab12cd34ef56ab78", span_id=42)
        header = ctx.to_traceparent()
        assert header == f"00-{'ab12cd34ef56ab78':0>32s}-{42:016x}-01"
        back = TraceContext.from_traceparent(header)
        assert back == ctx

    def test_traceparent_rejects_malformed(self):
        for bad in ("", "00-short-0000000000000001-01",
                    "00-" + "g" * 32 + "-" + "0" * 16 + "-01",
                    "no dashes at all"):
            assert TraceContext.from_traceparent(bad) is None

    def test_new_trace_stamps_records_and_events(self):
        obs.enable()
        trace_id = obs.trace.new_trace()
        assert len(trace_id) == 16
        with obs.trace.span("op"):
            obs.trace.event("mark")
        assert all(rec.trace_id == trace_id for rec in obs.trace.events())
        # to_dict/from_dict carries the trace id across the JSONL boundary.
        copy = SpanRecord.from_dict(obs.trace.events()[-1].to_dict())
        assert copy.trace_id == trace_id

    def test_current_context_names_innermost_open_span(self):
        obs.enable()
        trace_id = obs.trace.new_trace()
        assert obs.trace.current_context() == TraceContext(trace_id, None)
        with obs.trace.span("outer"):
            with obs.trace.span("inner") as inner:
                ctx = obs.trace.current_context()
        assert ctx == TraceContext(trace_id, inner.span_id)

    def test_ingest_grafts_foreign_tree_under_local_span(self):
        """A worker's shipped buffer hangs off the dispatch span and
        adopts the parent's trace id — the cross-process join."""
        obs.enable()
        worker = Tracer()
        worker_trace = worker.new_trace("feedbeeffeedbeef")
        with worker.span("exec.task"):
            with worker.span("measure"):
                pass
        shipped = [rec.to_dict() for rec in worker.events()]

        obs.trace.new_trace()
        with obs.trace.span("exec.prefetch") as prefetch:
            graft = prefetch.span_id
            obs.trace.ingest(shipped, under=graft)
        by_name = {rec.name: rec for rec in obs.trace.events()}
        assert by_name["exec.task"].parent_id == graft
        assert by_name["measure"].parent_id == by_name["exec.task"].span_id
        # Foreign trace ids are preserved (the worker adopted the parent's
        # id in production; here it proves ingest doesn't clobber them).
        assert by_name["exec.task"].trace_id == worker_trace


class TestEventLog:
    def test_emit_is_guarded_by_enable(self):
        obs.events.emit("cell.done", design="d")
        assert obs.events.EVENTS.events() == []
        obs.enable()
        obs.events.emit("cell.done", design="d")
        (event,) = obs.events.EVENTS.events()
        assert event["type"] == "cell.done" and event["design"] == "d"
        assert event["seq"] == 1 and event["ts"] > 0

    def test_events_carry_trace_context_and_scope(self):
        obs.enable()
        trace_id = obs.trace.new_trace()
        log = EventLog()
        with obs.trace.span("measure") as sp:
            with log.scope(job="job-1"):
                log.record("phase.start", phase="synth")
        (event,) = log.events()
        assert event["trace"] == trace_id
        assert event["span"] == sp.span_id
        assert event["job"] == "job-1"

    def test_ingest_resequences_and_applies_scope(self):
        log = EventLog()
        foreign = [{"type": "cell.done", "seq": 99, "design": "d1"},
                   {"type": "cell.retry", "seq": 100, "design": "d1",
                    "job": "their-job"}]
        with log.scope(job="job-7"):
            assert log.ingest(foreign) == 2
        first, second = log.events()
        assert [e["seq"] for e in (first, second)] == [1, 2]
        assert first["job"] == "job-7"          # scope fills the gap
        assert second["job"] == "their-job"     # but never overwrites

    def test_subscribe_and_since(self):
        log = EventLog()
        seen = []
        with log.subscribe(seen.append):
            log.record("a")
            log.record("b")
        log.record("c")  # after unsubscribe
        assert [e["type"] for e in seen] == ["a", "b"]
        fresh, latest = log.since(1)
        assert [e["type"] for e in fresh] == ["b", "c"]
        assert latest == 3
        assert log.since(latest)[0] == []

    def test_attached_sink_appends_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.record("before")  # not yet attached: not in the file
        log.attach(path)
        log.record("cell.done", design="d")
        log.detach()
        log.record("after")
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert [e["type"] for e in lines] == ["cell.done"]


class TestPrometheusLabels:
    def test_labelled_series_share_one_family_header(self):
        reg = MetricsRegistry()
        reg.inc("serve.blocks_total", 5)
        reg.inc("serve.blocks_total|design=d1,engine=model", 3)
        reg.inc("serve.blocks_total|design=d2,engine=sim", 2)
        text = render_prometheus(reg)
        assert text.count("# TYPE repro_serve_blocks_total counter") == 1
        assert "# HELP repro_serve_blocks_total" in text
        assert "repro_serve_blocks_total 5" in text
        assert ('repro_serve_blocks_total{design="d1",engine="model"} 3'
                in text)
        assert ('repro_serve_blocks_total{design="d2",engine="sim"} 2'
                in text)

    def test_supervision_counters_render_as_zeros(self):
        from repro.obs.report import (
            DEFAULT_COUNTERS,
            ensure_default_instruments,
        )

        reg = MetricsRegistry()
        ensure_default_instruments(reg)
        text = render_prometheus(reg)
        for name in ("repro_exec_worker_restarts", "repro_exec_poisoned_tasks",
                     "repro_cache_corrupt"):
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} counter" in text
            assert f"\n{name} 0" in "\n" + text
        assert len(DEFAULT_COUNTERS) >= 3

    def test_empty_registry_still_renders_empty(self):
        # The pre-registration lives in the serve endpoint, not here:
        # an untouched registry must keep rendering nothing at all.
        assert render_prometheus(MetricsRegistry()) == ""


class TestSpanTreePayload:
    def _record(self, span_id, parent_id, name, trace_id="t1", depth=0):
        return SpanRecord(span_id=span_id, parent_id=parent_id, depth=depth,
                          name=name, t_wall=float(span_id),
                          t_start=float(span_id), duration=0.001,
                          trace_id=trace_id)

    def test_nests_children_and_filters_by_trace(self):
        records = [self._record(1, None, "root"),
                   self._record(2, 1, "child", depth=1),
                   self._record(3, None, "other", trace_id="t2")]
        payload = span_tree_payload(records, trace_id="t1")
        assert payload["trace"] == "t1" and payload["count"] == 2
        (root,) = payload["spans"]
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == ["child"]

    def test_render_tree_text(self):
        records = [self._record(1, None, "sweep.fig1"),
                   self._record(2, 1, "measure", depth=1)]
        text = render_tree(records, "t1")
        assert text.splitlines()[0] == "== trace t1 — 2 spans =="
        assert "sweep.fig1" in text and "  measure" in text


def _assert_connected(records):
    """Every span must be parent-reachable from a single root."""
    spans = [rec for rec in records if rec.kind == "span"]
    by_id = {rec.span_id: rec for rec in spans}
    roots = [rec for rec in spans if rec.parent_id is None]
    assert len(roots) == 1, [r.name for r in roots]
    children = {}
    for rec in spans:
        children.setdefault(rec.parent_id, []).append(rec.span_id)
    reachable = set()
    stack = [roots[0].span_id]
    while stack:
        span_id = stack.pop()
        reachable.add(span_id)
        stack.extend(children.get(span_id, ()))
    assert reachable == set(by_id), "orphaned spans in the merged tree"
    assert len({rec.trace_id for rec in spans}) == 1
    return roots[0], spans


class TestConnectedTraces:
    """The tentpole guarantee: one causally-linked span tree per sweep,
    across pool workers and even across worker SIGKILLs."""

    SIZES = {"bsc_configs": 1, "bambu_configs": 1, "xls_stages": 1}

    def _fig1(self, session):
        from repro.eval.experiments import render_fig1
        from repro.eval.measure import clear_measure_cache

        clear_measure_cache()
        return render_fig1(session.fig1(**self.SIZES))

    def test_parallel_sweep_yields_one_tree_and_identical_stdout(self):
        from repro.api import Session

        serial = self._fig1(Session(jobs=1))

        session = Session(jobs=2, trace=True)
        try:
            parallel = self._fig1(session)
            records = obs.trace.events()
        finally:
            session.close()
        assert parallel == serial  # tracing never perturbs the artifact
        root, spans = _assert_connected(records)
        assert root.name == "sweep.fig1"
        assert root.trace_id == session.trace_id
        by_name = {}
        for rec in spans:
            by_name.setdefault(rec.name, []).append(rec)
        (prefetch,) = by_name["exec.prefetch"]
        assert prefetch.parent_id == root.span_id
        tasks = by_name["exec.task"]
        assert len(tasks) == prefetch.attrs["tasks"]
        assert all(rec.parent_id == prefetch.span_id for rec in tasks)
        # Worker-side phases nest inside their exec.task span (via the
        # worker's own resilience.run wrapper).
        by_id = {rec.span_id: rec for rec in spans}
        task_ids = {rec.span_id for rec in tasks}

        def has_task_ancestor(rec):
            while rec.parent_id is not None:
                if rec.parent_id in task_ids:
                    return True
                rec = by_id[rec.parent_id]
            return False

        measures = by_name["measure"]
        assert measures and all(has_task_ancestor(rec) for rec in measures)

    def test_sigkilled_workers_keep_the_tree_connected(self):
        from repro.api import Session
        from repro.chaos import ChaosPolicy

        session = Session(jobs=2, trace=True,
                          chaos=ChaosPolicy(seed=1, kill=1.0))
        try:
            self._fig1(session)
            records = obs.trace.events()
            events = obs.events.EVENTS.events()
        finally:
            session.close()
        assert session.last_runner.stats["worker_restarts"] > 0
        _root, spans = _assert_connected(records)
        tasks = [rec for rec in spans if rec.name == "exec.task"]
        # Re-dispatch rounds are visible: the same task appears again
        # with a higher attempt number, still inside the one tree.
        assert any(rec.attrs.get("attempt", 0) > 0 for rec in tasks)
        restarts = [e for e in events if e["type"] == "worker.restart"]
        assert restarts and all(e["trace"] == session.trace_id
                                for e in restarts)


class TestProfileJsonCli:
    def test_json_report_matches_text_totals(self, capsys):
        assert main(["profile", "hc-opt", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "chisel-opt"
        assert payload["bit_exact"] is True
        # One serialization path: total_ms is the sum of the same root
        # spans the text report's percent column divides by.
        roots_ms = sum(node["dur_us"] for node in payload["profile"]) / 1000
        assert payload["total_ms"] == pytest.approx(roots_ms, abs=0.01)
        # And the phase totals agree with recomputing from the tree.
        def walk(nodes):
            for node in nodes:
                yield node
                yield from walk(node["children"])
        measured = sum(n["dur_us"] for n in walk(payload["profile"])
                       if n["name"] == "measure") / 1e3
        phase_ms = sum(slot["measure"]["seconds"] * 1000
                       for slot in payload["phases"].values()
                       if "measure" in slot)
        assert phase_ms == pytest.approx(measured, abs=0.01)
        assert payload["metrics"]["counters"]["sim.cycles"] > 0


class TestObsCliGroup:
    def _events_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [{"seq": 1, "ts": 1.0, "type": "phase.start", "design": "d1"},
                 {"seq": 2, "ts": 2.0, "type": "cell.done", "design": "d1",
                  "trace": "abc123", "status": "ok"},
                 {"seq": 3, "ts": 3.0, "type": "cell.done", "design": "d2"}]
        path.write_text("".join(json.dumps(e) + "\n" for e in lines)
                        + '{"torn')  # crashed writer's partial last line
        return path

    def test_tail_filters_and_limits(self, capsys, tmp_path):
        path = self._events_file(tmp_path)
        assert main(["obs", "tail", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3 and "torn" not in out
        assert main(["obs", "tail", str(path), "--type", "cell.done",
                     "--limit", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert "cell.done" in out[0] and "design=d2" in out[0]

    def test_tail_counts_torn_line_and_leaves_file_alone(self, capsys,
                                                         tmp_path):
        path = self._events_file(tmp_path)
        before = path.read_bytes()
        obs.enable()
        assert main(["obs", "tail", str(path)]) == 0
        assert capsys.readouterr().out.count("\n") == 3
        assert path.read_bytes() == before   # readers never repair
        assert obs.metrics.snapshot()["counters"]["log.torn"] == 1

    def test_tail_missing_file(self, capsys, tmp_path):
        assert main(["obs", "tail", str(tmp_path / "nope.jsonl")]) == 2

    def test_tree_renders_exported_trace(self, capsys, tmp_path):
        obs.enable()
        trace_id = obs.trace.new_trace()
        with obs.trace.span("sweep.fig1"):
            with obs.trace.span("measure", design="d1"):
                pass
        path = tmp_path / "trace.jsonl"
        obs.trace.export_jsonl(path)
        assert main(["obs", "tree", trace_id, "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"== trace {trace_id} — 2 spans ==" in out
        assert "sweep.fig1" in out and "  measure" in out

    def test_diff_reports_metric_deltas(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(
            {"metrics": {"counters": {"cache.hits": 10, "same": 1},
                         "gauges": {}}}))
        b.write_text(json.dumps(
            {"metrics": {"counters": {"cache.hits": 15, "same": 1},
                         "gauges": {"new.g": 2.5}}}))
        assert main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "cache.hits" in out and "+5" in out and "+50.0%" in out
        assert "new.g" in out
        assert "same" not in out


class TestBenchGate:
    def _write(self, directory, name, ops):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{name}.json").write_text(json.dumps(
            {"metrics": {"counters": {},
                         "gauges": {"bench.ops": ops}}}))

    def _gate(self, *argv):
        return subprocess.run(
            [sys.executable, "scripts/bench_gate.py", *argv],
            capture_output=True, text=True)

    def test_injected_regression_fails_the_gate(self, tmp_path):
        self._write(tmp_path / "base", "fig1", 100.0)
        self._write(tmp_path / "fresh", "fig1", 80.0)  # -20%
        proc = self._gate("--benchmarks", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"))
        assert proc.returncode == 1
        assert "-20.0%" in proc.stdout
        assert "FAILED" in proc.stderr

    def test_within_threshold_passes(self, tmp_path):
        self._write(tmp_path / "base", "fig1", 100.0)
        self._write(tmp_path / "fresh", "fig1", 90.0)  # -10% < 15%
        proc = self._gate("--benchmarks", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"))
        assert proc.returncode == 0
        assert "bench gate: ok" in proc.stdout

    def test_missing_baseline_skips_with_notice(self, tmp_path):
        self._write(tmp_path / "fresh", "fig1", 100.0)
        proc = self._gate("--benchmarks", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"))
        assert proc.returncode == 0
        assert "skipping" in proc.stdout

    def test_update_records_baseline(self, tmp_path):
        self._write(tmp_path / "fresh", "fig1", 100.0)
        proc = self._gate("--benchmarks", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"), "--update")
        assert proc.returncode == 0
        assert (tmp_path / "base" / "BENCH_fig1.json").exists()
        proc = self._gate("--benchmarks", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"))
        assert proc.returncode == 0
