"""Tests for ``repro.serve.pool``: IPC framing, the pre-forked worker
pool's affinity routing, the kill/restart supervision ladder, retry-once
and poison quarantine, crash-budget exhaustion, heartbeat respawn, and
parent-side obs ingestion."""

import asyncio
import os
import signal
import struct
import time

import pytest

from repro import obs
from repro.api import Session
from repro.chaos import ChaosPolicy
from repro.core.errors import BudgetExceeded, EvaluationError, WorkerCrashError
from repro.eval.verify import random_matrices
from repro.serve.pool import (
    PoolConfig,
    WorkerInit,
    WorkerPool,
    _rebuild_error,
    _WorkerGone,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    read_frame,
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
    """One warm Session: children forked after this inherit the warm
    measurement memo, so per-test pools start fast."""
    s = Session()
    s.evaluator(DESIGN)
    return s


def _blocks(n):
    return [[list(row) for row in matrix] for matrix in random_matrices(n)]


def _run(coro):
    return asyncio.run(coro)


async def _with_pool(session, body, *, chaos=None, obs_on=False, **config):
    """Start a pool over ``session``'s substrate, run ``body(pool)``,
    always drain."""
    init = WorkerInit(
        cache_dir=(str(session.cache.root)
                   if session.cache is not None else None),
        chaos=chaos, obs=obs_on)
    config.setdefault("size", 2)
    config.setdefault("deadline_s", 60.0)
    config.setdefault("backoff_base_s", 0.0)
    pool = WorkerPool(init, PoolConfig(**config))
    await pool.start()
    try:
        return await body(pool)
    finally:
        await pool.drain()


# ---------------------------------------------------------------------------
# IPC framing
# ---------------------------------------------------------------------------
class TestFraming:
    def _read(self, raw):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_frame(reader)

        return _run(go())

    def test_round_trip(self):
        payload = {"op": "eval", "blocks": [[1, -2], [3, 4]], "id": 7}
        assert self._read(encode_frame(payload)) == payload

    def test_clean_eof_is_none(self):
        assert self._read(b"") is None

    def test_eof_mid_frame_is_none(self):
        # A worker that dies mid-write delivered nothing usable.
        raw = encode_frame({"op": "ping"})
        assert self._read(raw[:7]) is None

    def test_oversized_frame_is_rejected(self):
        head = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            self._read(head + b"x")

    def test_non_object_frame_is_rejected(self):
        with pytest.raises(ProtocolError):
            self._read(struct.pack(">I", 2) + b"[]")


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------
class TestRouting:
    def _pool(self, size=3):
        return WorkerPool(WorkerInit(), PoolConfig(size=size))

    def test_affinity_is_stable(self):
        pool = self._pool()
        picks = {pool._pick(DESIGN, "model").index for _ in range(8)}
        assert len(picks) == 1

    def test_engines_may_differ(self):
        pool = self._pool()
        a = pool._pick(DESIGN, "model").index
        b = pool._pick(DESIGN, "sim").index
        # Not necessarily different workers, but both deterministic.
        assert a == pool._pick(DESIGN, "model").index
        assert b == pool._pick(DESIGN, "sim").index

    def test_prefer_fresh_routes_to_newest_spawn(self):
        pool = self._pool()
        for i, worker in enumerate(pool.workers):
            worker.spawned_at = float(i)
        pool.workers[1].spawned_at = 99.0
        assert pool._pick(DESIGN, "model", prefer_fresh=True).index == 1


# ---------------------------------------------------------------------------
# error rebuild (parent side of the worker's classification)
# ---------------------------------------------------------------------------
class TestErrorRebuild:
    def test_cancelled_maps_to_budget_exceeded(self):
        exc = _rebuild_error({"type": "cancelled", "message": "m"}, DESIGN)
        assert isinstance(exc, BudgetExceeded)

    def test_usage_error_round_trips(self):
        from repro.api import UsageError

        exc = _rebuild_error({"type": "UsageError", "message": "m"}, DESIGN)
        assert isinstance(exc, UsageError)

    def test_value_error_round_trips(self):
        exc = _rebuild_error({"type": "ValueError", "message": "m"}, DESIGN)
        assert isinstance(exc, ValueError)
        assert not isinstance(exc, EvaluationError)

    def test_unknown_type_is_runtime_error(self):
        exc = _rebuild_error({}, DESIGN)
        assert isinstance(exc, RuntimeError)


# ---------------------------------------------------------------------------
# live pool behavior
# ---------------------------------------------------------------------------
class TestLivePool:
    def test_evaluate_matches_serial_path(self, session):
        blocks = _blocks(3)
        golden = session.idct(DESIGN, blocks)

        async def body(pool):
            out = await pool.evaluate(DESIGN, "model", blocks)
            assert out == golden
            snap = pool.snapshot()
            assert len(snap) == 2
            assert all(w["state"] == "idle" and w["restarts"] == 0
                       for w in snap)
            assert pool.stats == {"kills": 0, "restarts": 0,
                                  "retries": 0, "quarantined": 0}

        _run(_with_pool(session, body))

    def test_kill_once_retries_on_fresh_worker(self, session):
        blocks = _blocks(1)
        golden = session.idct(DESIGN, blocks)
        chaos = ChaosPolicy(seed=1, kill_targets=("serve:",))

        async def body(pool):
            out = await pool.evaluate(DESIGN, "model", blocks)
            assert out == golden
            assert pool.stats["kills"] == 1
            assert pool.stats["retries"] == 1
            assert pool.stats["restarts"] == 1
            assert pool.stats["quarantined"] == 0

        _run(_with_pool(session, body, chaos=chaos))

    def test_poison_request_is_quarantined_with_503_error(self, session):
        blocks = _blocks(1)
        # Doom only the first request (seq 1); the follow-up must work.
        chaos = ChaosPolicy(seed=1, poison_targets=(":model:1",))

        async def body(pool):
            with pytest.raises(WorkerCrashError):
                await pool.evaluate(DESIGN, "model", blocks)
            assert pool.stats["kills"] == 2       # both attempts died
            assert pool.stats["quarantined"] == 1
            assert pool.quarantined and \
                pool.quarantined[0].startswith("serve:")
            # The pool is still alive for well-behaved requests.
            out = await pool.evaluate(DESIGN, "model", blocks)
            assert out == session.idct(DESIGN, blocks)

        _run(_with_pool(session, body, chaos=chaos))

    def test_bad_engine_raises_client_error_not_crash(self, session):
        async def body(pool):
            with pytest.raises(ValueError):
                await pool.evaluate(DESIGN, "warp-drive", _blocks(1))
            assert pool.stats["kills"] == 0

        _run(_with_pool(session, body))

    def test_worker_budget_maps_to_budget_exceeded(self, session):
        # wall_s=0.0 exhausts during the first charged sim cycles; the
        # worker answers an honest error frame, nobody dies, and the
        # parent re-raises the same exception family (HTTP 504 upstream).
        init = WorkerInit(budget_s=0.0)

        async def body():
            pool = WorkerPool(init, PoolConfig(size=2, deadline_s=60.0,
                                               backoff_base_s=0.0))
            await pool.start()
            try:
                # Enough blocks that the simulator charges past the
                # 256-cycle wall-check interval: 32 blocks on each of the
                # 16 lanes behind the sim engine.
                with pytest.raises(BudgetExceeded):
                    await pool.evaluate(DESIGN, "sim", _blocks(512))
                assert pool.stats["kills"] == 0
            finally:
                await pool.drain()

        _run(body())


class TestLadder:
    def test_soft_cancel_answers_and_worker_survives(self, session):
        async def body(pool):
            worker = pool.workers[0]
            reply = await pool._call(worker, {"op": "sleep", "s": 30}, 0.2)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "cancelled"
            # The worker took the SIGINT, answered, and still serves.
            pong = await pool._call(worker, {"op": "ping"}, 5.0)
            assert pong["ok"] and pong["pid"] == worker.pid
            assert pool.stats["kills"] == 0

        _run(_with_pool(session, body, soft_grace_s=2.0))

    def test_wedged_worker_escalates_to_sigkill_and_respawns(self, session):
        async def body(pool):
            worker = pool.workers[0]
            doomed_pid = worker.pid
            with pytest.raises(_WorkerGone):
                await pool._call(
                    worker, {"op": "sleep", "s": 60, "wedged": True}, 0.2)
            assert pool.stats["kills"] == 1
            # Next use of the slot respawns transparently.
            pong = await pool._call(worker, {"op": "ping"}, 5.0)
            assert pong["ok"] and worker.pid != doomed_pid
            assert worker.restarts == 1

        _run(_with_pool(session, body,
                        soft_grace_s=0.2, term_grace_s=0.2))

    def test_heartbeat_respawns_externally_killed_worker(self, session):
        async def body(pool):
            worker = pool.workers[0]
            os.kill(worker.pid, signal.SIGKILL)
            # The heartbeat that respawned the worker may still be
            # pinging it, so wait for the slot to go idle as well.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                await asyncio.sleep(0.05)
                if worker.restarts and worker.state == "idle":
                    break
            assert worker.restarts == 1
            assert worker.state == "idle"
            assert pool.stats["kills"] == 1

        _run(_with_pool(session, body, ping_interval_s=0.1,
                        ping_timeout_s=2.0))

    def test_exhausted_crash_budget_fails_honestly(self, session):
        chaos = ChaosPolicy(seed=1, poison_targets=("serve:",))

        async def body(pool):
            with pytest.raises(WorkerCrashError):
                await pool.evaluate(DESIGN, "model", _blocks(1))
            # Budget of 1 is spent after the poison pair; the pool stops
            # respawning and answers honestly instead of looping.
            with pytest.raises(WorkerCrashError):
                await pool.evaluate(DESIGN, "model", _blocks(1))
            assert any(w.state == "failed" for w in pool.workers)

        _run(_with_pool(session, body, chaos=chaos, crash_budget=1))


class TestObsIngestion:
    def test_worker_spans_and_metrics_land_in_parent(self, session):
        obs.enable()
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        trace_id = obs_trace.new_trace()
        blocks = _blocks(2)

        async def body(pool):
            await pool.evaluate(DESIGN, "model", blocks)

        _run(_with_pool(session, body, obs_on=True))
        names = {rec.name for rec in obs_trace.events()}
        assert "serve.evaluate" in names
        assert all(rec.trace_id == trace_id for rec in obs_trace.events()
                   if rec.name == "serve.evaluate")
        snapshot = obs_metrics.snapshot()
        assert snapshot["counters"].get("serve.sim_invocations") == 1
        assert snapshot["counters"].get("serve.blocks_total") == 2

    def test_worker_warm_start_from_cache_builds_nothing(self, tmp_path):
        from repro.eval.measure import clear_measure_cache
        from repro.idct.reference import chen_wang_idct
        from repro.obs import trace as obs_trace

        clear_measure_cache()  # fill the disk cache, not just the memo
        cached = Session(cache=tmp_path)
        cached.measure(DESIGN)
        clear_measure_cache()  # the forked worker must read the disk cache
        obs.enable()
        blocks = _blocks(2)

        async def body(pool):
            return await pool.evaluate(DESIGN, "model", blocks)

        out = _run(_with_pool(cached, body, obs_on=True, size=1))
        assert out == [chen_wang_idct(block) for block in blocks]
        names = [rec.name for rec in obs_trace.events()]
        assert "measure.disk_cache_hit" in names
        assert "frontend.build" not in names
