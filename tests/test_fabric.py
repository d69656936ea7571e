"""Tests for ``repro.fabric``: the task wire form, the broker's lease
ledger (happy path, expiry → re-dispatch, double-expiry → poison,
at-most-once commit), the HTTP surface (validation, content-addressed
artifacts, pre-registered metrics), and the end-to-end invariant — a
``--fabric`` sweep served by pull-workers renders byte-identical to a
serial run, and a distributed run assembles into one connected trace
tree."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict

import http.client

import pytest

import repro
from repro import obs
from repro.api import Session
from repro.cache import ArtifactCache
from repro.chaos.scenarios import check_invariant
from repro.eval.experiments import render_fig1
from repro.eval.measure import clear_measure_cache
from repro.exec.tasks import SweepTask, TaskSchemaError, table2_tasks
from repro.fabric import TaskBroker, run_worker, run_worker_fleet
from repro.resilience.runner import RunnerConfig
from repro.serve import EvalServer, ServeConfig


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.clear()
    yield
    obs.disable()
    obs.clear()


# ---------------------------------------------------------------------------
# the versioned task wire form
# ---------------------------------------------------------------------------
class TestWireForm:
    def test_round_trips_through_json(self):
        task = SweepTask("fig1", "chisel", 3,
                         sizes=(("n_points", 4),), ctx=("abc123", 7))
        wire = json.loads(json.dumps(task.to_record()))
        assert SweepTask.from_record(wire) == task

    def test_unknown_schema_is_a_typed_error(self):
        record = table2_tasks()[0].to_record()
        record["schema"] = 99
        with pytest.raises(TaskSchemaError):
            SweepTask.from_record(record)
        with pytest.raises(TaskSchemaError):
            SweepTask.from_record({"kind": "table2", "key": "x", "index": 0})


# ---------------------------------------------------------------------------
# broker ledger (injectable clock: no sockets, no sleeps)
# ---------------------------------------------------------------------------
def _sweep_payload(n=2):
    return {
        "tasks": [task.to_record() for task in table2_tasks()[:n]],
        "config": asdict(RunnerConfig()),
        "inject": [], "skip": [], "trace": False,
    }


class TestBroker:
    def setup_method(self):
        self.clock = [0.0]
        self.broker = TaskBroker(lease_s=10.0, backoff_s=0.0,
                                 clock=lambda: self.clock[0])

    def test_lease_heartbeat_result_happy_path(self):
        sweep = self.broker.submit(_sweep_payload(2))
        leases = self.broker.lease("w1", limit=8)
        assert [lease["attempt"] for lease in leases] == [0, 0]
        assert all(lease["deadline_s"] == 10.0 for lease in leases)
        # a live heartbeat extends; a stranger's is stale
        assert self.broker.heartbeat(leases[0]["id"], "w1") == \
            {"stale": False, "deadline_s": 10.0}
        assert self.broker.heartbeat(leases[0]["id"], "w2") == {"stale": True}
        assert self.broker.heartbeat("nope", "w1") is None
        for i, lease in enumerate(leases):
            assert self.broker.result(lease["id"], "w1",
                                      {"index": i}) == {"stale": False}
        status = self.broker.status(sweep)
        assert (status["state"], status["done"]) == ("done", 2)
        assert self.broker.results(sweep) == \
            [{"output": {"index": 0}}, {"output": {"index": 1}}]
        # at most one commit ever wins
        assert self.broker.result(leases[0]["id"], "w1",
                                  {"index": 9}) == {"stale": True}
        assert self.broker.results(sweep)[0] == {"output": {"index": 0}}

    def test_expiry_requeues_and_late_result_is_stale(self):
        sweep = self.broker.submit(_sweep_payload(1))
        (lease,) = self.broker.lease("w1")
        self.clock[0] = 11.0
        assert self.broker.expire() == 1
        # the presumed-dead worker finishing late must not land
        assert self.broker.result(lease["id"], "w1",
                                  {"who": "w1"}) == {"stale": True}
        (release,) = self.broker.lease("w2")
        assert release["id"] == lease["id"]
        assert release["attempt"] == 1
        assert self.broker.result(release["id"], "w2",
                                  {"who": "w2"}) == {"stale": False}
        assert self.broker.results(sweep) == [{"output": {"who": "w2"}}]
        assert self.broker.status(sweep)["expiries"] == 1

    def test_double_expiry_poisons_as_crash_sentinel(self):
        sweep = self.broker.submit(_sweep_payload(1))
        for bump in (11.0, 22.0):
            self.broker.lease(f"w{bump}")
            self.clock[0] = bump
            assert self.broker.expire() == 1
        assert self.broker.lease("w3") == []     # nothing left to hand out
        status = self.broker.status(sweep)
        assert (status["state"], status["expiries"]) == ("done", 2)
        assert self.broker.results(sweep) == [{"crashed": 2}]

    def test_expire_by_worker_skips_the_deadline(self):
        """A worker seen dead loses every lease it holds at once; other
        workers' leases and the clock are untouched."""
        sweep = self.broker.submit(_sweep_payload(3))
        dead = self.broker.lease("w1", limit=2)
        (alive,) = self.broker.lease("w2")
        assert self.broker.expire(worker="w1") == 2
        assert self.broker.expire() == 0          # no deadline has passed
        assert [lease["attempt"] for lease in self.broker.lease("w3", 8)] \
            == [1, 1]
        assert self.broker.result(alive["id"], "w2", {}) == {"stale": False}
        assert self.broker.result(dead[0]["id"], "w1", {}) == {"stale": True}
        assert self.broker.status(sweep)["expiries"] == 2

    def test_snapshot_counts(self):
        self.broker.submit(_sweep_payload(2))
        self.broker.lease("w1", limit=1)
        snap = self.broker.snapshot()
        assert snap["workers"] == ["w1"]
        assert (snap["leases"], snap["pending"]) == (1, 1)
        assert snap["sweeps"]["running"] == 1


# ---------------------------------------------------------------------------
# HTTP surface
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

    @property
    def master(self):
        return f"{self.host}:{self.port}"

    def request(self, method, path, payload=None, body=None,
                headers=None, timeout=120):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            if payload is not None:
                body = json.dumps(payload).encode()
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self, code=0):
        self.server.request_drain(code)
        self._thread.join(timeout=120)
        assert not self._thread.is_alive(), "server failed to drain"
        return self.exit_code


@pytest.fixture()
def live():
    servers = []

    def start(session=None, **config):
        server = _LiveServer(session or Session(), **config)
        servers.append(server)
        return server

    yield start
    for server in servers:
        if server._thread.is_alive():
            server.stop()


class TestFabricHTTP:
    def test_metrics_preregistered_and_healthz_block(self, live):
        server = live()
        status, body = server.request("GET", "/metrics")
        assert status == 200
        for name in (b"repro_fabric_leases", b"repro_fabric_expiries",
                     b"repro_fabric_requeues"):
            assert name + b" 0" in body   # visible at zero before any sweep
        status, body = server.request("GET", "/healthz")
        fabric = json.loads(body)["fabric"]
        assert fabric["leases"] == 0 and fabric["pending"] == 0
        assert fabric["sweeps"] == {"running": 0, "done": 0, "failed": 0}
        assert server.stop() == 0

    def test_submit_and_lease_validation(self, live):
        server = live()
        status, _ = server.request("POST", "/v1/sweeps",
                                   payload={"tasks": []})
        assert status == 400
        bad = _sweep_payload(1)
        bad["tasks"][0]["schema"] = 99
        status, body = server.request("POST", "/v1/sweeps", payload=bad)
        assert status == 400 and b"schema" in body
        status, _ = server.request("GET", "/v1/sweeps/s999")
        assert status == 404
        status, _ = server.request("POST", "/v1/tasks/lease", payload={})
        assert status == 400                        # no worker id
        status, _ = server.request("POST", "/v1/tasks/nope/heartbeat",
                                   payload={"worker": "w"})
        assert status == 404
        status, _ = server.request("POST", "/v1/tasks/nope/result",
                                   payload={"worker": "w", "output": {}})
        assert status == 404
        # a running sweep has no results yet: explicit 409, not a hang
        status, body = server.request("POST", "/v1/sweeps",
                                      payload=_sweep_payload(1))
        assert status == 200
        sweep = json.loads(body)["id"]
        status, _ = server.request("GET", f"/v1/sweeps/{sweep}/results")
        assert status == 409
        assert server.stop() == 0

    def test_idle_once_worker_exits_when_a_sweep_finishes(self):
        """A ``--once`` worker whose siblings ran every task still exits:
        the lease reply counts finished sweeps."""

        class ScriptedClient:
            replies = [{"leases": [], "finished": 0},
                       {"leases": [], "finished": 1}]

            def request(self, method, path, payload=None):
                return 200, self.replies.pop(0)

        client = ScriptedClient()
        assert run_worker("unused", client=client, once=True, poll_s=0.0,
                          bootstrap=False) == 0
        assert client.replies == []

    def test_artifacts_are_content_addressed(self, live, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        server = live(session=Session(cache=cache))
        data = b"sealed artifact bytes"
        key = hashlib.sha256(data).hexdigest()
        status, _ = server.request("GET", f"/v1/artifacts/{key}")
        assert status == 404
        status, body = server.request("PUT", f"/v1/artifacts/{key}",
                                      body=data)
        assert status == 200 and json.loads(body)["key"] == key
        status, body = server.request("GET", f"/v1/artifacts/{key}")
        assert status == 200 and body == data
        status, _ = server.request("GET", "/v1/artifacts/not-a-key")
        assert status == 400
        # tampered upload: bytes do not hash to the claimed address
        status, body = server.request("PUT", f"/v1/artifacts/{key}",
                                      body=b"evil replacement")
        assert status == 400
        assert cache.stats["corrupt"] >= 1
        quarantined = os.path.join(str(tmp_path), "corrupt", f"{key}.bin")
        assert os.path.exists(quarantined)   # rejected bytes kept for triage
        # the original sealed blob survives the attempt
        status, body = server.request("GET", f"/v1/artifacts/{key}")
        assert status == 200 and body == data
        assert server.stop() == 0


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------
def _fig1_text(session):
    clear_measure_cache()
    return render_fig1(session.fig1())


class TestFabricEndToEnd:
    def test_fabric_sweep_is_byte_identical_to_serial(self, live):
        clean = _fig1_text(Session(jobs=1))
        server = live()
        worker = threading.Thread(
            target=run_worker, args=(server.master,),
            kwargs={"worker_id": "t1", "bootstrap": False}, daemon=True)
        worker.start()
        session = Session(fabric=server.master)
        fabric_text = _fig1_text(session)
        assert fabric_text == clean
        assert session.last_runner.stats["worker_restarts"] == 0
        status, body = server.request("GET", "/healthz")
        fabric = json.loads(body)["fabric"]
        assert fabric["sweeps"]["done"] == 1 and fabric["pending"] == 0
        assert server.stop() == 0
        worker.join(timeout=60)       # master gone -> worker exits its loop
        assert not worker.is_alive()

    def test_once_fleet_retires_workers_without_stranding_a_lease(self, live):
        """``work --parallel 2 --once``: a child that runs out of work
        retires its own slot only.  Its sibling keeps its lease, the sweep
        finishes with no expiries, and the fleet exits 0 on its own."""
        clean = _fig1_text(Session(jobs=1))
        server = live(fabric_lease_s=2.0)
        fleet = multiprocessing.get_context("fork").Process(
            target=run_worker_fleet, args=(server.master, 2),
            kwargs={"once": True})
        fleet.start()
        outputs = []
        sweep = threading.Thread(
            target=lambda: outputs.append(
                _fig1_text(Session(fabric=server.master))),
            daemon=True)
        try:
            sweep.start()
            sweep.join(timeout=300)
            assert not sweep.is_alive(), "fabric sweep hung"
            assert outputs == [clean]
            fleet.join(timeout=60)
            assert not fleet.is_alive(), "fleet did not exit on its own"
            assert fleet.exitcode == 0
            status, body = server.request("GET", "/healthz")
            assert json.loads(body)["fabric"]["expiries"] == 0
        finally:
            if fleet.is_alive():
                fleet.terminate()
                fleet.join(timeout=10)
        assert server.stop() == 0

    def test_abandoned_leases_poison_to_honest_failures(self, live):
        """A 'vampire' client leases every task and never reports.  Each
        lease must expire twice and quarantine, and the sweep must end
        with explicit FAILED(...) cells — never a hang, never silently
        wrong numbers."""
        clean = _fig1_text(Session(jobs=1))
        server = live(fabric_lease_s=0.4, fabric_backoff_s=0.0)
        stop = threading.Event()

        def vampire():
            while not stop.wait(0.05):
                try:
                    server.request("POST", "/v1/tasks/lease",
                                   payload={"worker": "vampire",
                                            "limit": 64})
                except OSError:
                    return

        thread = threading.Thread(target=vampire, daemon=True)
        thread.start()
        session = Session(fabric=server.master)
        try:
            chaotic = _fig1_text(session)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert check_invariant(clean, chaotic) == []
        assert "FAILED(" in chaotic
        stats = session.last_runner.stats
        assert stats["poisoned"] > 0
        assert stats["worker_restarts"] == 2 * stats["poisoned"]
        assert server.stop() == 0

    def test_distributed_run_assembles_one_trace_tree(self, live, tmp_path):
        """A real subprocess pull-worker measures a traced task; the
        master grafts the shipped spans under its fabric.dispatch span
        and serves the whole run as one connected tree."""
        server = live()
        trace_id = "deadbeef" * 4
        payload = _sweep_payload(1)
        payload["trace"] = True
        payload["tasks"][0]["ctx"] = [trace_id, 1]
        status, body = server.request(
            "POST", "/v1/sweeps", payload=payload,
            headers={"traceparent": f"00-{trace_id}-0000000000000001-01",
                     "Content-Type": "application/json"})
        assert status == 200
        sweep = json.loads(body)["id"]

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "work",
             "--master", server.master, "--once", "--max-idle-s", "120"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, body = server.request("GET", f"/v1/sweeps/{sweep}")
            if json.loads(body).get("state") == "done":
                break
            time.sleep(0.05)
        else:
            pytest.fail("fabric sweep never finished")

        status, body = server.request("GET", f"/v1/traces/{trace_id}")
        assert status == 200
        tree = json.loads(body)
        assert tree["trace"] == trace_id
        roots = [node["name"] for node in tree["spans"]]
        assert "fabric.dispatch" in roots

        def names(node):
            yield node["name"]
            for child in node["children"]:
                yield from names(child)

        dispatch = next(node for node in tree["spans"]
                        if node["name"] == "fabric.dispatch")
        assert dispatch["children"], "worker spans never grafted"
        assert "exec.task" in set(names(dispatch))
        assert server.stop() == 0
