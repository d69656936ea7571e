"""Tests for ``repro.serve``: HTTP framing, the micro-batcher's
coalescing bound, engine bit-exactness, admission control (429), the
live obs endpoints, and the SIGTERM drain lifecycle."""

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import asyncio

import pytest

from repro import obs
from repro.api import Session
from repro.eval.verify import random_matrices
from repro.idct.reference import chen_wang_idct
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_prometheus
from repro.serve import EvalServer, MicroBatcher, ServeConfig, validate_blocks
from repro.serve.protocol import (
    ProtocolError,
    json_response,
    read_request,
)

DESIGN = "verilog-initial"


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.clear()
    yield
    obs.disable()
    obs.clear()


@pytest.fixture(scope="module")
def session():
    """One Session shared across the module: the warm start (a full
    measurement) happens once, later tests reuse the hot evaluator."""
    return Session()


def _blocks(n):
    return [[list(row) for row in matrix] for matrix in random_matrices(n)]


# ---------------------------------------------------------------------------
# protocol framing
# ---------------------------------------------------------------------------
def _parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestProtocol:
    def test_parses_request_line_headers_and_body(self):
        body = b'{"design": "d"}'
        request = _parse(
            b"POST /v1/idct?x=1 HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        assert request.method == "POST"
        assert request.path == "/v1/idct"
        assert request.query == "x=1"
        assert request.headers["content-type"] == "application/json"
        assert request.json() == {"design": "d"}
        assert request.keep_alive  # HTTP/1.1 default

    def test_connection_close_disables_keep_alive(self):
        request = _parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_malformed_request_line_is_400(self):
        with pytest.raises(ProtocolError) as err:
            _parse(b"NONSENSE\r\n\r\n")
        assert err.value.status == 400

    def test_unsupported_version_is_505(self):
        with pytest.raises(ProtocolError) as err:
            _parse(b"GET / HTTP/2.0\r\n\r\n")
        assert err.value.status == 505

    def test_oversized_body_is_413(self):
        # parse against a tiny limit so the test stays small
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n")
            reader.feed_eof()
            return await read_request(reader, max_body=10)

        with pytest.raises(ProtocolError) as err:
            asyncio.run(go())
        assert err.value.status == 413

    def test_non_object_json_body_is_rejected(self):
        request = _parse(
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]")
        with pytest.raises(ProtocolError):
            request.json()

    def test_json_response_is_canonical(self):
        response = json_response({"b": 1, "a": 2})
        assert response.body == b'{"a": 2, "b": 1}\n'


# ---------------------------------------------------------------------------
# micro-batcher coalescing
# ---------------------------------------------------------------------------
class TestMicroBatcher:
    def _runner(self, calls):
        async def runner(key, blocks):
            calls.append(list(blocks))
            return [value * 10 for value in blocks]

        return runner

    def test_same_tick_burst_meets_the_coalescing_bound(self):
        """N concurrent submits -> <= ceil(N/max_batch) runner invocations.

        Submits issued before the first await all land in one window, so
        the flush takes every pending block: the bound is met with a
        single invocation, and each caller still gets exactly its own
        outputs back in order.
        """
        calls = []
        n, max_batch = 32, 8

        async def go():
            batcher = MicroBatcher(self._runner(calls), max_batch=max_batch,
                                   max_wait_s=0.05)
            return await asyncio.gather(
                *[batcher.submit("k", [i]) for i in range(n)])

        results = asyncio.run(go())
        assert len(calls) <= math.ceil(n / max_batch)
        assert sum(len(batch) for batch in calls) == n  # nothing dropped
        assert results == [[i * 10] for i in range(n)]

    def test_sequential_windows_flush_separately(self):
        calls = []

        async def go():
            batcher = MicroBatcher(self._runner(calls), max_batch=4,
                                   max_wait_s=0.5)
            first = await asyncio.gather(
                *[batcher.submit("k", [i]) for i in range(4)])
            second = await asyncio.gather(
                *[batcher.submit("k", [i + 4]) for i in range(4)])
            return first + second

        results = asyncio.run(go())
        assert [len(batch) for batch in calls] == [4, 4]
        assert results == [[i * 10] for i in range(8)]

    def test_max_latency_flushes_a_lone_request(self):
        calls = []

        async def go():
            batcher = MicroBatcher(self._runner(calls), max_batch=1000,
                                   max_wait_s=0.01)
            t0 = time.perf_counter()
            out = await batcher.submit("k", [7])
            return out, time.perf_counter() - t0

        out, elapsed = asyncio.run(go())
        assert out == [70]
        assert elapsed < 5.0  # flushed by the window, not the size bound

    def test_distinct_keys_never_share_a_batch(self):
        calls = []

        async def go():
            batcher = MicroBatcher(self._runner(calls), max_batch=8,
                                   max_wait_s=0.01)
            return await asyncio.gather(batcher.submit("a", [1]),
                                        batcher.submit("b", [2]))

        assert asyncio.run(go()) == [[10], [20]]
        assert sorted(calls) == [[1], [2]]

    def test_runner_failure_reaches_every_member(self):
        async def runner(key, blocks):
            raise RuntimeError("boom")

        async def go():
            batcher = MicroBatcher(runner, max_batch=8, max_wait_s=0.01)
            return await asyncio.gather(
                batcher.submit("k", [1]), batcher.submit("k", [2]),
                return_exceptions=True)

        results = asyncio.run(go())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_output_count_mismatch_is_an_error(self):
        async def runner(key, blocks):
            return blocks[:-1]  # one short

        async def go():
            batcher = MicroBatcher(runner, max_batch=8, max_wait_s=0.01)
            return await asyncio.gather(batcher.submit("k", [1, 2]),
                                        return_exceptions=True)

        (result,) = asyncio.run(go())
        assert isinstance(result, RuntimeError)


# ---------------------------------------------------------------------------
# block validation + evaluation engines
# ---------------------------------------------------------------------------
class TestEvaluator:
    def test_validate_blocks_rejects_bad_shapes_and_ranges(self):
        with pytest.raises(ValueError):
            validate_blocks([])
        with pytest.raises(ValueError):
            validate_blocks([[[0] * 8] * 7])  # 7 rows
        with pytest.raises(ValueError):
            validate_blocks([[[0] * 7] * 8])  # 7 columns
        with pytest.raises(ValueError):
            validate_blocks([[[0.5] + [0] * 7] + [[0] * 8] * 7])
        with pytest.raises(ValueError):
            validate_blocks([[[4096] + [0] * 7] + [[0] * 8] * 7])
        ok = validate_blocks([[[-2048, 2047] + [0] * 6] + [[0] * 8] * 7])
        assert len(ok) == 1

    def test_both_engines_match_the_golden_model(self, session):
        blocks = _blocks(3)
        expected = [chen_wang_idct(block) for block in blocks]
        assert session.idct(DESIGN, blocks, engine="model") == expected
        assert session.idct(DESIGN, blocks, engine="sim") == expected

    def test_batch_engine_matches_the_golden_model(self, session):
        blocks = _blocks(5)
        expected = [chen_wang_idct(block) for block in blocks]
        assert session.idct(DESIGN, blocks, engine="batch") == expected

    def test_unknown_engine_is_rejected(self, session):
        with pytest.raises(ValueError):
            session.idct(DESIGN, _blocks(1), engine="hopeful")

    def test_sim_and_batch_engines_share_one_netlist(self, session):
        from repro.serve.evaluator import DesignEvaluator

        evaluator = DesignEvaluator(DESIGN, session=session)
        blocks = _blocks(2)
        expected = [chen_wang_idct(block) for block in blocks]
        obs.enable()
        assert evaluator.evaluate(blocks, engine="sim") == expected
        assert evaluator.evaluate(blocks, engine="batch") == expected
        elaborations = [r for r in obs.trace.events() if r.name == "elaborate"]
        assert len(elaborations) == 1

    def test_non_bit_exact_design_is_refused(self, session, monkeypatch):
        from types import SimpleNamespace

        from repro.core.errors import EvaluationError
        from repro.serve.evaluator import DesignEvaluator

        monkeypatch.setattr(
            session, "measure",
            lambda name: SimpleNamespace(bit_exact=False, name=name))
        with pytest.raises(EvaluationError):
            DesignEvaluator(DESIGN, session=session)


# ---------------------------------------------------------------------------
# prometheus exposition
# ---------------------------------------------------------------------------
class TestPrometheus:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits", 3)
        registry.set_gauge("serve.queue_depth", 2)
        registry.observe("serve.batch_size", 3)
        registry.observe("serve.batch_size", 10)
        lines = render_prometheus(registry).splitlines()
        assert "# TYPE repro_cache_hits counter" in lines
        assert "repro_cache_hits 3" in lines
        assert "# TYPE repro_serve_queue_depth gauge" in lines
        assert "repro_serve_queue_depth 2" in lines
        assert "# TYPE repro_serve_batch_size histogram" in lines
        assert 'repro_serve_batch_size_bucket{le="4"} 1' in lines
        assert 'repro_serve_batch_size_bucket{le="16"} 2' in lines  # cumulative
        assert 'repro_serve_batch_size_bucket{le="+Inf"} 2' in lines
        assert "repro_serve_batch_size_sum 13" in lines
        assert "repro_serve_batch_size_count 2" in lines

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


# ---------------------------------------------------------------------------
# live server (in-process, real sockets)
# ---------------------------------------------------------------------------
class _LiveServer:
    """EvalServer on a background thread, stopped via request_drain."""

    def __init__(self, session, **config):
        self.server = EvalServer(session, ServeConfig(port=0, **config))
        self.host = self.port = None
        self.exit_code = None
        self._announced = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._announced.wait(120), "server never announced"

    def _run(self):
        def announce(host, port):
            self.host, self.port = host, port
            self._announced.set()

        self.exit_code = self.server.serve_forever(announce=announce)

    def request(self, method, path, payload=None, timeout=120):
        status, _headers, body = self.request_full(method, path, payload,
                                                   timeout=timeout)
        return status, body

    def request_full(self, method, path, payload=None, timeout=120):
        """Like :meth:`request`, but also returns the response headers
        (429 tests assert the computed ``Retry-After``)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            body = None if payload is None else json.dumps(payload).encode()
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, dict(response.headers), response.read()
        finally:
            conn.close()

    def stop(self, code=0):
        self.server.request_drain(code)
        self._thread.join(timeout=120)
        assert not self._thread.is_alive(), "server failed to drain"
        return self.exit_code


@pytest.fixture()
def live(session):
    servers = []

    def start(**config):
        server = _LiveServer(session, **config)
        servers.append(server)
        return server

    yield start
    for server in servers:
        if server._thread.is_alive():
            server.stop()


class TestLiveServer:
    def test_healthz_metrics_and_unknown_routes(self, live):
        server = live(batch_wait_s=0.0)
        status, body = server.request("GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["inflight"] == 0
        status, body = server.request("GET", "/metrics")
        assert status == 200
        assert b"repro_serve_requests_total" in body
        status, _ = server.request("GET", "/v1/nope")
        assert status == 404
        status, _ = server.request("POST", "/healthz", payload={})
        assert status == 405
        status, _ = server.request(
            "POST", "/v1/idct", payload={"design": DESIGN, "blocks": "x"})
        assert status == 400
        assert server.stop() == 0

    def test_routing_contract(self, live):
        """Every endpoint answers its own method and refuses each wrong
        one with the 405 text its method list names; the edge cases of
        the id/suffix split keep their status and body.  An expected
        body is the exact JSON error, or a predicate over the raw bytes."""
        from repro.api import render_engines_json

        key = "ab" * 32
        own = [
            ("GET", "/healthz", 200,
             lambda body: json.loads(body)["status"] == "ok"),
            ("GET", "/metrics", 200,
             lambda body: b"repro_serve_requests_total" in body),
            ("GET", "/v1/engines", 200,
             lambda body: body == render_engines_json().encode("utf-8")),
            ("POST", "/v1/idct", 400, "missing 'design'"),
            ("POST", "/v1/verify", 400, "missing 'design'"),
            ("POST", "/v1/measure", 400, "missing 'design'"),
            ("POST", "/v1/jobs", 400, "missing 'kind'"),
            ("GET", "/v1/jobs", 200, lambda body: json.loads(body) == {
                "jobs": []}),
            ("GET", "/v1/jobs/x", 404, "no such job: x"),
            ("GET", "/v1/jobs/x/events", 404, "no such job: x"),
            ("GET", "/v1/traces/x", 404, "no spans for trace: x"),
            ("POST", "/v1/sweeps", 400,
             "sweep needs a non-empty 'tasks' list"),
            ("GET", "/v1/sweeps/x", 404, "no such sweep: x"),
            ("GET", "/v1/sweeps/x/results", 404, "no such sweep: x"),
            ("POST", "/v1/tasks/lease", 400, "missing 'worker'"),
            ("POST", "/v1/tasks/x/heartbeat", 400, "missing 'worker'"),
            ("POST", "/v1/tasks/x/result", 400, "missing 'worker'"),
            ("GET", f"/v1/artifacts/{key}", 503,
             "no artifact cache configured on this master"),
            ("PUT", f"/v1/artifacts/{key}", 503,
             "no artifact cache configured on this master"),
        ]
        wrong = []
        for path, allowed in (
                ("/healthz", "GET"), ("/metrics", "GET"),
                ("/v1/engines", "GET"), ("/v1/idct", "POST"),
                ("/v1/verify", "POST"), ("/v1/measure", "POST"),
                ("/v1/jobs", "POST or GET"), ("/v1/jobs/x", "GET"),
                ("/v1/jobs/x/events", "GET"), ("/v1/traces/x", "GET"),
                ("/v1/sweeps", "POST"), ("/v1/sweeps/x", "GET"),
                ("/v1/sweeps/x/results", "GET"),
                ("/v1/tasks/lease", "POST"),
                ("/v1/tasks/x/heartbeat", "POST"),
                ("/v1/tasks/x/result", "POST"),
                (f"/v1/artifacts/{key}", "GET or PUT")):
            for method in ("GET", "POST", "PUT", "DELETE"):
                if method not in allowed.split(" or "):
                    wrong.append((method, path, 405, f"use {allowed}"))
        edges = [
            ("PUT", "/v1/jobs", 405, "use POST or GET"),
            ("POST", "/v1/jobs/x/events", 405, "use GET"),
            ("GET", "/v1/tasks/lease", 405, "use POST"),
            ("GET", "/v1/tasks/x", 405, "use POST"),
            ("POST", "/v1/tasks/x", 404,
             "no such endpoint: POST /v1/tasks/x"),
            ("DELETE", f"/v1/artifacts/{key}", 405, "use GET or PUT"),
            ("GET", "/v1/nope", 404, "no such endpoint: GET /v1/nope"),
        ]
        server = live(batch_wait_s=0.0)
        for method, path, status, expected in own + wrong + edges:
            got, body = server.request(method, path)
            assert got == status, (method, path, body)
            if callable(expected):
                assert expected(body), (method, path, body)
            else:
                assert json.loads(body) == {"error": expected}, (method, path)
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=120)
        try:
            conn.request("GET", "/v1/nope", headers={"X-Api-Key": "typo"})
            response = conn.getresponse()
            assert response.status == 403
            assert json.loads(response.read()) == {"error": "unknown API key"}
        finally:
            conn.close()
        assert server.stop() == 0

    def test_http_burst_coalesces_and_is_bit_exact(self, live):
        """Concurrent single-block requests for one design coalesce to
        <= ceil(N/max_batch) evaluator invocations (here: one), and every
        response is bit-identical to the golden model / serial path."""
        n, max_batch = 8, 64
        blocks = _blocks(n)
        expected = [chen_wang_idct(block) for block in blocks]
        server = live(max_batch=max_batch, batch_wait_s=0.75,
                      warm=(DESIGN,))
        before = obs_metrics.counter("serve.sim_invocations").value
        with ThreadPoolExecutor(max_workers=n) as pool:
            futures = [
                pool.submit(server.request, "POST", "/v1/idct",
                            {"design": DESIGN, "blocks": [block]})
                for block in blocks
            ]
            results = [future.result() for future in futures]
        for (status, body), exp in zip(results, expected):
            assert status == 200
            payload = json.loads(body)
            assert payload["design"] == DESIGN
            assert payload["outputs"] == [exp]
        invocations = (obs_metrics.counter("serve.sim_invocations").value
                       - before)
        assert 1 <= invocations <= math.ceil(n / max_batch)
        # the coalesced batch is visible in the obs histogram
        status, body = server.request("GET", "/metrics")
        assert f'repro_serve_batch_size_bucket{{le="+Inf"}}'.encode() in body
        assert server.stop() == 0

    def test_sim_engine_over_http_matches_model(self, live):
        server = live(batch_wait_s=0.0, warm=(DESIGN,))
        blocks = _blocks(2)
        status, body = server.request(
            "POST", "/v1/idct",
            {"design": DESIGN, "blocks": blocks, "engine": "sim"})
        assert status == 200
        assert json.loads(body)["outputs"] == [
            chen_wang_idct(block) for block in blocks]
        assert server.stop() == 0

    def test_batch_engine_over_http_matches_model(self, live):
        server = live(batch_wait_s=0.0, warm=(DESIGN,))
        blocks = _blocks(3)
        status, body = server.request(
            "POST", "/v1/idct",
            {"design": DESIGN, "blocks": blocks, "engine": "batch"})
        assert status == 200
        assert json.loads(body)["outputs"] == [
            chen_wang_idct(block) for block in blocks]
        assert server.stop() == 0

    def test_unknown_engine_is_a_400_not_a_breaker_failure(self, live):
        server = live(batch_wait_s=0.0, warm=(DESIGN,))
        status, body = server.request(
            "POST", "/v1/idct",
            {"design": DESIGN, "blocks": _blocks(1), "engine": "hopeful"})
        assert status == 400
        assert b"hopeful" in body
        # resolution happens before the breaker/batcher: a typo must not
        # count toward tripping the circuit breaker
        assert server.server.breaker.state == "closed"
        assert server.server.breaker._consecutive == 0
        assert server.stop() == 0

    def test_engines_endpoint_is_the_one_serialization(self, live):
        from repro.api import render_engines_json

        server = live(batch_wait_s=0.0)
        status, body = server.request("GET", "/v1/engines")
        assert status == 200
        assert body == render_engines_json().encode("utf-8")
        assert server.stop() == 0

    def test_overload_answers_429_with_queue_depth_gauge(self, live):
        """With max_inflight=1, a request parked in the batch window holds
        the only slot: the next request is turned away with 429 and the
        rejection/queue-depth show up in /metrics."""
        server = live(max_inflight=1, max_batch=64, batch_wait_s=1.5,
                      warm=(DESIGN,))
        block = _blocks(1)[0]
        with ThreadPoolExecutor(max_workers=1) as pool:
            parked = pool.submit(server.request, "POST", "/v1/idct",
                                 {"design": DESIGN, "blocks": [block]})
            deadline = time.time() + 10
            while (server.server.admission.inflight == 0
                   and time.time() < deadline):
                time.sleep(0.01)
            assert server.server.admission.inflight == 1
            status, headers, body = server.request_full(
                "POST", "/v1/idct", {"design": DESIGN, "blocks": [block]})
            assert status == 429
            assert b"overloaded" in body
            # turned-away clients are told when to come back, never hung
            assert int(headers["Retry-After"]) >= 1
            status, metrics_body = server.request("GET", "/metrics")
            text = metrics_body.decode()
            assert "repro_serve_rejected_total 1" in text
            assert "repro_serve_queue_depth 1" in text  # parked request
            status, body = parked.result()
        assert status == 200
        assert json.loads(body)["outputs"] == [chen_wang_idct(block)]
        assert server.stop() == 0

    def test_measure_body_is_byte_identical_to_cli_json(self, live, session):
        server = live(batch_wait_s=0.0)
        status, body = server.request("POST", "/v1/measure",
                                      {"design": DESIGN})
        assert status == 200
        assert body == session.measure(DESIGN).to_json().encode("utf-8")

    def test_verify_endpoint_reports_bit_exact(self, live):
        server = live(batch_wait_s=0.0)
        status, body = server.request("POST", "/v1/verify",
                                      {"design": DESIGN})
        assert status == 200
        payload = json.loads(body)
        assert payload["bit_exact"] is True
        assert payload["measured"]["name"] == DESIGN

    def test_unknown_design_is_400(self, live):
        server = live(batch_wait_s=0.0)
        status, body = server.request(
            "POST", "/v1/idct",
            {"design": "no-such-design", "blocks": _blocks(1)})
        assert status == 400
        assert b"unknown design" in body

    def test_jobs_lifecycle(self, live):
        server = live(batch_wait_s=0.0)
        status, _ = server.request("POST", "/v1/jobs", {"kind": "nope"})
        assert status == 400
        status, _ = server.request("GET", "/v1/jobs/job-999")
        assert status == 404
        status, body = server.request(
            "POST", "/v1/jobs", {"kind": "table2", "params": {"tools": []}})
        assert status == 202
        job = json.loads(body)
        assert job["status"] in ("queued", "running")
        deadline = time.time() + 300
        while time.time() < deadline:
            status, body = server.request("GET", f"/v1/jobs/{job['id']}")
            assert status == 200
            job = json.loads(body)
            if job["status"] in ("done", "failed"):
                break
            time.sleep(0.2)
        assert job["status"] == "done", job.get("error")
        assert "Verilog/Vivado" in job["output"]

    def test_bad_sweep_parameters_are_400_and_queue_nothing(self, live,
                                                             tmp_path):
        journal = tmp_path / "jobs.jsonl"
        server = live(batch_wait_s=0.0, job_journal=str(journal))
        for body in (
            {"kind": "fig1", "params": {"bsc_configs": -1}},
            {"kind": "fig1", "params": {"xls_stages": "many"}},
            {"kind": "fig1", "params": {"full": "no"}},
            {"kind": "table2", "params": {"tools": "Chisel/Chisel"}},
        ):
            status, reply = server.request("POST", "/v1/jobs", body)
            assert status == 400, (body, reply)
        status, listing = server.request("GET", "/v1/jobs")
        assert status == 200 and json.loads(listing)["jobs"] == []
        assert not journal.exists() or b"submitted" not in journal.read_bytes()

    def test_draining_server_refuses_new_compute(self, live, session):
        server = live(batch_wait_s=0.0)
        # flip the drain flag directly (the async drain task only runs on
        # the server loop; here we only need the admission answer)
        server.server._draining = True
        response = server.server._admit()
        assert response is not None and response.status == 503
        server.server._draining = False
        assert server.stop() == 0


class TestCircuitBreakerHTTP:
    def test_flaky_evaluator_opens_circuit_503_with_retry_after(
            self, live, session):
        """Repeated chaos-injected evaluator faults must open the
        breaker: 422s for the failures themselves, then an immediate 503
        with a Retry-After header while the circuit is open."""
        from repro.chaos import ChaosPolicy
        from repro.chaos import activate as activate_chaos

        server = live(batch_wait_s=0.0, breaker_threshold=2,
                      breaker_cooldown_s=60.0)
        payload = {"design": DESIGN, "blocks": _blocks(1)}
        with activate_chaos(ChaosPolicy(seed=1, flaky=1.0)):
            for _ in range(2):
                status, body = server.request("POST", "/v1/idct", payload)
                assert status == 422
                assert b"injected evaluator fault" in body
        # Chaos is gone, but the circuit stays open through the cooldown.
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=120)
        try:
            conn.request("POST", "/v1/idct",
                         body=json.dumps(payload).encode())
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 503
        assert b"circuit open" in body
        retry_after = response.getheader("Retry-After")
        assert retry_after is not None and 1 <= int(retry_after) <= 60
        status, body = server.request("GET", "/healthz")
        assert status == 200
        assert json.loads(body)["breaker"] == "open"
        assert server.stop() == 0


class TestWarmStartBuilds:
    def test_cached_design_is_served_without_a_build(self, tmp_path):
        """A warm start from the artifact cache builds nothing; the first
        sim request builds the design once."""
        from repro.eval.measure import clear_measure_cache

        clear_measure_cache()
        Session(cache=tmp_path).measure(DESIGN)
        clear_measure_cache()
        server = _LiveServer(Session(cache=tmp_path), batch_wait_s=0.0,
                             warm=(DESIGN,))

        def request(engine):
            status, _body = server.request(
                "POST", "/v1/idct",
                {"design": DESIGN, "blocks": _blocks(1), "engine": engine})
            assert status == 200
            return sum(rec.name == "frontend.build"
                       for rec in obs.trace.events())

        assert request("model") == 0
        assert request("model") == 0
        assert request("sim") == 1
        assert request("batch") == 1
        assert server.stop() == 0


class TestMultiProcessServing:
    def test_single_process_mode_reports_no_workers(self, live):
        """--workers 1 keeps the in-process compute thread: /healthz
        shows an empty worker list and the pool counters exist but stay
        zero (pre-registered, so dashboards see the series either way)."""
        server = live(batch_wait_s=0.0)
        status, body = server.request("GET", "/healthz")
        assert status == 200
        assert json.loads(body)["workers"] == []
        status, body = server.request("GET", "/metrics")
        text = body.decode()
        assert "repro_serve_worker_restarts 0" in text
        assert "repro_serve_worker_kills 0" in text
        assert server.stop() == 0

    def test_pool_burst_is_byte_identical_to_single_process(self, live):
        """The same coalesced burst, answered by the pre-forked pool,
        must be bit-identical to the in-process path (= golden model)."""
        n = 6
        blocks = _blocks(n)
        expected = [chen_wang_idct(block) for block in blocks]
        server = live(workers=2, warm=(DESIGN,), max_batch=64,
                      batch_wait_s=0.25)
        with ThreadPoolExecutor(max_workers=n) as pool:
            futures = [
                pool.submit(server.request, "POST", "/v1/idct",
                            {"design": DESIGN, "blocks": [block]})
                for block in blocks
            ]
            results = [future.result() for future in futures]
        for (status, body), exp in zip(results, expected):
            assert status == 200
            assert json.loads(body)["outputs"] == [exp]
        status, body = server.request("GET", "/healthz")
        workers = json.loads(body)["workers"]
        assert len(workers) == 2
        for worker in workers:
            assert worker["state"] in ("idle", "busy")
            assert worker["restarts"] == 0
            assert worker["inflight"] == 0
            assert isinstance(worker["pid"], int)
        assert server.stop() == 0

    def test_worker_crashes_trip_the_breaker(self):
        """Poison chaos kills both workers a request touches: each
        request is an honest 503 (quarantine), consecutive crashes trip
        the breaker, and the open circuit rejects without touching the
        pool.  /healthz carries both the breaker state and the per-worker
        restart counts; /metrics carries the pool counters."""
        from repro.chaos import ChaosPolicy

        session = Session(
            chaos=ChaosPolicy(seed=1, poison_targets=("serve:",)))
        server = _LiveServer(session, workers=2, warm=(DESIGN,),
                             batch_wait_s=0.0, breaker_threshold=2,
                             breaker_cooldown_s=60.0)
        try:
            payload = {"design": DESIGN, "blocks": _blocks(1)}
            for _ in range(2):
                status, body = server.request("POST", "/v1/idct", payload)
                assert status == 503
                assert b"quarantined" in body
            kills = server.server.pool.stats["kills"]
            assert kills == 4  # two attempts died per poisoned request
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=120)
            try:
                conn.request("POST", "/v1/idct",
                             body=json.dumps(payload).encode())
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
            assert response.status == 503
            assert b"circuit open" in body
            assert response.getheader("Retry-After") is not None
            # The open circuit rejected before the pool saw anything.
            assert server.server.pool.stats["kills"] == kills
            status, body = server.request("GET", "/healthz")
            health = json.loads(body)
            assert health["breaker"] == "open"
            assert len(health["workers"]) == 2
            assert sum(w["restarts"] for w in health["workers"]) >= 1
            status, body = server.request("GET", "/metrics")
            lines = body.decode().splitlines()
            restarts = [line for line in lines
                        if line.startswith("repro_serve_worker_restarts ")]
            killed = [line for line in lines
                      if line.startswith("repro_serve_worker_kills ")]
            assert restarts and float(restarts[0].split()[1]) >= 1
            assert killed and float(killed[0].split()[1]) >= 4
        finally:
            assert server.stop() == 0

    def test_half_open_probe_routes_prefer_fresh(self, session):
        """The breaker's half-open probe must test a *fresh* worker —
        the slot whose affinity accumulated the failures proves nothing."""
        server = EvalServer(session, ServeConfig(port=0))
        seen = []

        class FakePool:
            async def evaluate(self, design, engine, blocks,
                               prefer_fresh=False):
                seen.append(prefer_fresh)
                return [[0]]

        server.pool = FakePool()

        async def go():
            server.breaker.state = "half-open"
            await server._run_batch((DESIGN, "model"), [[[0] * 8] * 8])
            server.breaker.state = "closed"
            await server._run_batch((DESIGN, "model"), [[[0] * 8] * 8])

        asyncio.run(go())
        assert seen == [True, False]

    def test_drain_releases_an_inflight_probe(self, session):
        """A half-open probe still in flight when SIGTERM lands must not
        leave the breaker wedged 'probing' across the drain."""
        server = EvalServer(session, ServeConfig(port=0, drain_grace_s=0.1))
        server.breaker._probing = True
        asyncio.run(server._finish_drain(0))
        assert server.breaker._probing is False


class TestSignalDrain:
    def test_sigterm_mid_burst_drains_and_exits_zero(self, tmp_path):
        """A real `python -m repro serve` process: SIGTERM during a burst
        finishes the in-flight request and exits 0."""
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--batch-wait-ms", "200"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))))
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving on "), line
            host, _, port = line.rpartition(" ")[2].rpartition(":")

            block = _blocks(1)[0]
            result = {}

            def burst():
                conn = http.client.HTTPConnection(host, int(port),
                                                  timeout=120)
                conn.request("POST", "/v1/idct", body=json.dumps(
                    {"design": DESIGN, "blocks": [block]}).encode())
                response = conn.getresponse()
                result["status"] = response.status
                result["body"] = response.read()
                conn.close()

            thread = threading.Thread(target=burst)
            thread.start()
            time.sleep(0.05)  # let the request land in the batch window
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=120)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # the in-flight request was finished, not dropped
        assert result.get("status") == 200
        assert json.loads(result["body"])["outputs"] == [
            chen_wang_idct(block)]
