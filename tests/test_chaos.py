"""Tests for ``repro.chaos`` and the crash-safe machinery it attacks:
seeded policy determinism, cache checksum/quarantine integrity, worker
supervision under real SIGKILLs, the durable job journal, and the
evaluator circuit breaker."""

import json
import os
import time

import pytest

from repro import obs
from repro.api import Session, UsageError
from repro.cache import ArtifactCache, split_footer
from repro.cache.store import seal
from repro.chaos import ChaosPolicy, activate, parse_chaos_spec
from repro.chaos.scenarios import check_invariant
from repro.core.errors import EvaluationError, WorkerCrashError
from repro.eval.experiments import render_fig1
from repro.eval.measure import clear_measure_cache
from repro.obs import metrics as obs_metrics
from repro.qos import Tenant
from repro.serve.breaker import CircuitBreaker
from repro.serve.jobs import JobManager

#: Small enough for CI, large enough to shard across two workers.
SMALL_FIG1 = {"bsc_configs": 0, "bambu_configs": 1, "xls_stages": 1}


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.clear()
    yield
    obs.disable()
    obs.clear()


def _fig1_text(session) -> str:
    clear_measure_cache()
    return render_fig1(session.fig1(**SMALL_FIG1))


@pytest.fixture(scope="module")
def clean_fig1() -> str:
    """The chaos-free serial baseline every invariant check compares to."""
    clear_measure_cache()
    return render_fig1(Session(jobs=1).fig1(**SMALL_FIG1))


# ---------------------------------------------------------------------------
# policy determinism and the --chaos spec grammar
# ---------------------------------------------------------------------------
class TestChaosPolicy:
    def test_decisions_are_deterministic_per_seed(self):
        ids = [f"fig1:XLS:{i}" for i in range(40)]
        a = [ChaosPolicy(seed=5, kill=0.5).should_kill(t, 0) for t in ids]
        b = [ChaosPolicy(seed=5, kill=0.5).should_kill(t, 0) for t in ids]
        c = [ChaosPolicy(seed=6, kill=0.5).should_kill(t, 0) for t in ids]
        assert a == b
        assert a != c  # a different seed dooms different tasks
        assert any(a) and not all(a)  # 0.5 is neither never nor always

    def test_kill_is_first_attempt_only_poison_is_every_attempt(self):
        kill = ChaosPolicy(seed=1, kill=1.0)
        assert kill.should_kill("t:k:0", 0)
        assert not kill.should_kill("t:k:0", 1)
        poison = ChaosPolicy(seed=1, poison=1.0)
        assert all(poison.should_kill("t:k:0", n) for n in range(4))

    def test_targets_select_by_task_id_substring(self):
        policy = ChaosPolicy(kill_targets=("XLS:1",),
                             poison_targets=("Bambu",))
        assert policy.should_kill("fig1:XLS:1", 0)
        assert not policy.should_kill("fig1:XLS:1", 1)   # kill-once
        assert not policy.should_kill("fig1:XLS:0", 0)
        assert policy.should_kill("fig1:Bambu:3", 5)     # poison: always

    def test_corrupt_bytes_rots_deterministically(self):
        blob = seal(b'{"x": 1}' * 8)
        rot = ChaosPolicy(seed=2, corrupt=1.0)
        rotten = rot.corrupt_bytes("cache:k", blob)
        assert rotten != blob
        assert rotten == ChaosPolicy(seed=2, corrupt=1.0).corrupt_bytes(
            "cache:k", blob)
        assert split_footer(rotten) is None  # verification must catch it
        assert ChaosPolicy(seed=2).corrupt_bytes("cache:k", blob) == blob

    def test_evaluator_fault_raises_and_recovers(self):
        policy = ChaosPolicy(seed=1, flaky=1.0)
        with pytest.raises(EvaluationError):
            policy.evaluator_fault("d:model")
        # A fractional rate draws per *call*, not per key: one endpoint
        # both fails and recovers over its lifetime.
        partial = ChaosPolicy(seed=1, flaky=0.5)
        outcomes = set()
        for _ in range(64):
            try:
                partial.evaluator_fault("d:model")
                outcomes.add("ok")
            except EvaluationError:
                outcomes.add("fault")
        assert outcomes == {"ok", "fault"}

    def test_spec_round_trip(self):
        policy = parse_chaos_spec(
            "seed=7, kill=0.5, poison=@Bambu, corrupt=1, latency=0.25")
        assert policy.seed == 7
        assert policy.kill == 0.5
        assert policy.poison_targets == ("Bambu",)
        assert policy.corrupt == 1.0
        assert policy.latency_s == 0.25

    @pytest.mark.parametrize("spec", [
        "kill",                # no '='
        "frob=1",              # unknown key
        "kill=high",           # not a number
        "kill=1.5",            # probability out of range
        "corrupt=@xls",        # @target only for kill/poison
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_chaos_spec(spec)

    def test_session_maps_bad_spec_to_usage_error(self):
        with pytest.raises(UsageError):
            Session(chaos="kill=2.0")


# ---------------------------------------------------------------------------
# cache integrity: checksum footer, quarantine, truncated pickles
# ---------------------------------------------------------------------------
class TestCacheIntegrity:
    KEY = "ab" + "0" * 62

    def test_footer_round_trip_and_tamper_detection(self):
        blob = seal(b'{"ok": true}')
        assert split_footer(blob) == b'{"ok": true}'
        assert split_footer(blob[:-5]) is None            # truncated
        flipped = bytes([blob[3] ^ 1])
        assert split_footer(blob[:3] + flipped + blob[4:]) is None
        assert split_footer(b"no footer at all") is None

    def test_truncated_pickle_is_a_quarantined_miss(self, tmp_path):
        # Regression: a half-written pickle used to crash the sweep with
        # an unhandled UnpicklingError instead of falling back to a miss.
        cache = ArtifactCache(tmp_path / "c")
        cache.put_pickle("netlist", self.KEY, {"nested": [1, (2, 3)]})
        path = cache._path("netlist", self.KEY, "pkl")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        assert cache.get_pickle("netlist", self.KEY) is None
        assert cache.stats["corrupt"] == 1
        assert not os.path.exists(path)
        assert len(list((tmp_path / "c" / "corrupt").iterdir())) == 1
        # The slot is reusable after quarantine.
        cache.put_pickle("netlist", self.KEY, {"fresh": True})
        assert cache.get_pickle("netlist", self.KEY) == {"fresh": True}

    def test_valid_checksum_but_unparsable_body_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        path = cache._path("measured", self.KEY, "json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(seal(b"not json"))  # intact footer, broken body
        assert cache.get_json("measured", self.KEY) is None
        assert cache.stats["corrupt"] == 1

    def test_chaos_rot_on_write_is_caught_on_read(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        with activate(ChaosPolicy(seed=3, corrupt=1.0)):
            cache.put_json("measured", self.KEY, {"x": 1})
        assert cache.get_json("measured", self.KEY) is None  # never trusted
        assert cache.stats["corrupt"] == 1
        cache.put_json("measured", self.KEY, {"x": 1})  # chaos-free rewrite
        assert cache.get_json("measured", self.KEY) == {"x": 1}


# ---------------------------------------------------------------------------
# worker supervision under real SIGKILLs
# ---------------------------------------------------------------------------
class TestWorkerSupervision:
    def test_sigkilled_workers_recover_byte_identical(self, clean_fig1):
        """kill=1.0 SIGKILLs pool workers mid-sweep; supervision must
        re-dispatch every task and reproduce the serial output exactly."""
        session = Session(jobs=2, trace=True,
                          chaos=ChaosPolicy(seed=1, kill=1.0))
        try:
            chaotic = _fig1_text(session)
        finally:
            restarts = obs_metrics.counter("exec.worker_restarts").value
            session.close()
        assert chaotic == clean_fig1
        assert session.last_runner.stats["worker_restarts"] > 0
        assert restarts > 0
        assert session.last_runner.stats["poisoned"] == 0

    def test_a_kill_is_charged_only_to_the_task_that_died(self):
        """One SIGKILL re-runs one task: the quick Fig. 1 under
        ``kill=@XLS:2`` comes back byte-identical with exactly one worker
        restart, and only ``fig1:XLS:2`` carries ``attempt > 0``."""
        clear_measure_cache()
        clean = render_fig1(Session(jobs=1).fig1())
        session = Session(jobs=2, trace=True, chaos="seed=1,kill=@XLS:2")
        try:
            clear_measure_cache()
            chaotic = render_fig1(session.fig1())
            retried = [rec.attrs["task"] for rec in obs.trace.events()
                       if rec.name == "exec.task"
                       and rec.attrs.get("attempt", 0) > 0]
            counters = obs_metrics.snapshot()["counters"]
            events = [event["type"] for event in obs.events.EVENTS.events()]
        finally:
            session.close()
        assert chaotic == clean
        stats = session.last_runner.stats
        assert (stats["worker_restarts"], stats["poisoned"]) == (1, 0)
        assert retried == ["fig1:XLS:2"]
        assert counters["exec.worker_restarts"] == 1
        # The local broker is private: no fabric.* telemetry.
        assert not [name for name in [*counters, *events]
                    if name.startswith("fabric.")]

    def test_poisoned_task_becomes_honest_failed_cell(self, clean_fig1):
        """A task that kills its worker on *every* attempt must end up as
        an explicit FAILED(WorkerCrashError) cell, not a wrong number."""
        session = Session(jobs=2, chaos="poison=@XLS:1")
        chaotic = _fig1_text(session)
        assert "FAILED(WorkerCrashError)" in chaotic
        assert check_invariant(clean_fig1, chaotic) == []
        assert session.last_runner.stats["poisoned"] == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_invariant_holds_under_cache_rot(self, clean_fig1, tmp_path,
                                             seed):
        """Honest-failure invariant, parametrized over seeds: a sweep
        whose every cache artifact rots on disk never reports silently
        wrong numbers, and the rot is detected (cache.corrupt > 0) when
        the artifacts are read back."""
        root = tmp_path / "cache"
        cold = Session(jobs=1, cache=ArtifactCache(root),
                       chaos=ChaosPolicy(seed=seed, corrupt=1.0))
        assert check_invariant(clean_fig1, _fig1_text(cold)) == []
        warm = Session(jobs=1, cache=ArtifactCache(root), trace=True)
        try:
            assert check_invariant(clean_fig1, _fig1_text(warm)) == []
            assert warm.cache.stats["corrupt"] > 0
            assert obs_metrics.counter("cache.corrupt").value > 0
        finally:
            warm.close()


# ---------------------------------------------------------------------------
# durable job journal
# ---------------------------------------------------------------------------
class _StubSession:
    def summary_lines(self):
        return []


class _StubJobManager(JobManager):
    """JobManager with the sweep swapped out for an instant stub."""

    def __init__(self, *args, fail: bool = False, **kwargs):
        self.fail = fail
        super().__init__(_StubSession(), *args, **kwargs)

    def _execute(self, job):
        if self.fail:
            raise RuntimeError("stub failure")
        return f"output of {job.id}"


def _wait_terminal(manager, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = manager.get(job_id)
        if job is not None and job.status in ("done", "failed"):
            return job
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never reached a terminal state")


class TestJobJournal:
    def test_lifecycle_is_journaled_and_replayed(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        manager = _StubJobManager(journal=journal)
        job = manager.submit("fig1", {})
        _wait_terminal(manager, job.id)
        manager.drain()
        events = [json.loads(line)["event"]
                  for line in journal.read_text().splitlines()]
        assert events == ["submitted", "running", "done"]
        reborn = _StubJobManager(journal=journal)
        replayed = reborn.get(job.id)
        assert replayed.status == "done"
        assert replayed.output == f"output of {job.id}"
        assert not replayed.interrupted
        # Ids continue past the journal, never colliding with history.
        assert reborn.submit("fig1", {}).id == "job-2"
        reborn.drain()

    def test_crash_leaves_interrupted_jobs_resume_reruns_them(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        # A journal as a SIGKILL'd server leaves it: one job mid-run, one
        # acknowledged but never started, and a torn final line.
        journal.write_text(
            '{"event": "submitted", "id": "job-1", "kind": "fig1", '
            '"params": {}}\n'
            '{"event": "running", "id": "job-1"}\n'
            '{"event": "submitted", "id": "job-2", "kind": "fig1", '
            '"params": {}}\n'
            '{"event": "runni')
        listed = _StubJobManager(journal=journal)
        assert [job.status for job in listed.list()] == ["interrupted"] * 2
        assert all(job.to_dict()["interrupted"] for job in listed.list())
        listed.drain()
        resumed = _StubJobManager(journal=journal, resume=True)
        for job_id in ("job-1", "job-2"):
            job = _wait_terminal(resumed, job_id)
            assert job.status == "done"
            assert job.to_dict()["interrupted"] is True  # honest history
        resumed.drain()

    def test_torn_tail_never_swallows_the_next_record(self, tmp_path):
        """A crash mid-append leaves a partial last line.  The next
        acknowledged record must not be glued onto it (and so lost at
        the following restart)."""
        journal = tmp_path / "jobs.jsonl"
        manager = _StubJobManager(journal=journal)
        _wait_terminal(manager, manager.submit("fig1", {}).id)
        manager.drain()
        data = journal.read_bytes()
        journal.write_bytes(data[:-10])   # cut "done job-1" mid-line
        restarted = _StubJobManager(journal=journal)
        job = restarted.submit("table2", {}, tenant=Tenant("acme"),
                               priority=3)
        assert job.id == "job-2"
        _wait_terminal(restarted, job.id)
        restarted.drain()
        reborn = _StubJobManager(journal=journal)
        assert [j.id for j in reborn.list()] == ["job-1", "job-2"]
        assert reborn.get("job-1").status == "interrupted"
        job2 = reborn.get("job-2")
        assert (job2.status, job2.tenant, job2.priority) == ("done", "acme", 3)
        reborn.drain()

        # A journal written before writers repaired torn tails can hold
        # such a glued line mid-file; every valid record after it counts.
        journal.write_text(
            '{"event": "submitted", "id": "job-1", "kind": "fig1", '
            '"params": {}}\n'
            '{"event": "runni{"event": "submitted", "id": "job-2", '
            '"kind": "fig1", "params": {}}\n'
            '{"event": "submitted", "id": "job-3", "kind": "fig1", '
            '"params": {}, "tenant": "acme", "priority": 2}\n'
            '{"event": "running", "id": "job-3"}\n'
            '{"event": "done", "id": "job-3", "output": "x", '
            '"summary": []}\n')
        replayed = _StubJobManager(journal=journal)
        assert [j.id for j in replayed.list()] == ["job-1", "job-3"]
        job3 = replayed.get("job-3")
        assert (job3.status, job3.output, job3.tenant, job3.priority) \
            == ("done", "x", "acme", 2)
        assert replayed.submit("fig1", {}).id == "job-4"
        replayed.drain()

    def test_failed_jobs_replay_as_failed(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        manager = _StubJobManager(journal=journal, fail=True)
        job = manager.submit("table2", {})
        assert _wait_terminal(manager, job.id).status == "failed"
        manager.drain()
        reborn = _StubJobManager(journal=journal)
        assert reborn.get(job.id).status == "failed"
        assert reborn.get(job.id).error == "stub failure"
        reborn.drain()

    def test_terminal_jobs_are_evicted_past_max_retained(self):
        manager = _StubJobManager(max_retained=2)
        ids = [manager.submit("fig1", {}).id for _ in range(5)]
        # The single worker thread runs them in submission order, so the
        # last job finishing means all five are terminal (or evicted).
        _wait_terminal(manager, ids[-1])
        manager.drain()
        retained = [job.id for job in manager.list() if job.id in ids]
        assert 1 <= len(retained) <= 2
        assert ids[0] not in retained  # oldest evicted first

    def test_ttl_evicts_old_terminal_jobs(self):
        manager = _StubJobManager(ttl_s=0.05)
        old = manager.submit("fig1", {})
        _wait_terminal(manager, old.id)
        time.sleep(0.1)
        fresh = manager.submit("fig1", {})
        _wait_terminal(manager, fresh.id)
        assert manager.get(old.id) is None
        manager.drain()

    def test_resumed_job_survives_eviction_sweep_mid_commit(self, tmp_path):
        """Regression: a --resume-jobs re-run must never be evicted by a
        TTL/max_retained sweep firing at the worst instant — while its
        terminal transition is being committed.  Resumed jobs carry the
        lowest ids, so the overflow rule used to pick them first, and
        the old commit order exposed status "done" before the journal
        record was durable or ``finished_at`` was set."""
        seen = []

        class _SweptDuringCommit(_StubJobManager):
            def _journal(self, event, **fields):
                if event == "done" and fields.get("id") == "job-1":
                    # A concurrent submission's prune, mid-commit.  With
                    # max_retained=0 it evicts every unprotected
                    # terminal job.
                    self._prune()
                    seen.append(self.get("job-1") is not None)
                super()._journal(event, **fields)

        journal = tmp_path / "jobs.jsonl"
        journal.write_text(
            '{"event": "submitted", "id": "job-1", "kind": "fig1", '
            '"params": {}}\n'
            '{"event": "running", "id": "job-1"}\n')
        manager = _SweptDuringCommit(journal=journal, resume=True,
                                     max_retained=0)
        # Hold a direct reference: once the commit completes the job is
        # legitimately evictable (max_retained=0), so manager.get() may
        # go None — but only *after* the terminal transition is durable.
        job = manager.get("job-1")
        assert job is not None
        deadline = time.monotonic() + 30.0
        while job.status != "done" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.status == "done"
        manager.drain()
        assert seen == [True], \
            "resumed job was evicted mid-commit by the retention sweep"
        events = [json.loads(line)["event"]
                  for line in journal.read_text().splitlines()]
        assert events == ["submitted", "running", "resumed", "running",
                          "done"]

    def test_replayed_terminal_jobs_get_a_fresh_ttl_clock(self, tmp_path):
        """The journal records no wall-clock times, so TTL for replayed
        terminal jobs measures from recovery — a long-dead server's
        results must survive long enough to be read, not be swept by the
        first prune after restart."""
        journal = tmp_path / "jobs.jsonl"
        journal.write_text(
            '{"event": "submitted", "id": "job-1", "kind": "fig1", '
            '"params": {}}\n'
            '{"event": "running", "id": "job-1"}\n'
            '{"event": "done", "id": "job-1", "output": "x", '
            '"summary": []}\n')
        reborn = _StubJobManager(journal=journal, ttl_s=3600.0)
        job = reborn.get("job-1")
        assert job.status == "done"
        assert job.finished_at is not None
        with reborn._lock:
            reborn._prune()
        assert reborn.get("job-1") is not None
        reborn.drain()


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = [0.0]
        breaker = CircuitBreaker(clock=lambda: clock[0], **kwargs)
        return clock, breaker

    def test_full_cycle_closed_open_halfopen_closed(self):
        clock, breaker = self._breaker(threshold=2, cooldown_s=10.0)
        fault = EvaluationError("injected")
        assert breaker.admit() is None
        breaker.record_failure(fault)
        assert breaker.state == "closed"       # one below threshold
        assert breaker.admit() is None
        breaker.record_failure(fault)
        assert breaker.state == "open"
        retry = breaker.admit()
        assert retry is not None and retry == pytest.approx(10.0)
        clock[0] = 6.0
        assert breaker.admit() == pytest.approx(4.0)  # counts down
        clock[0] = 10.5
        assert breaker.admit() is None                # the half-open probe
        assert breaker.state == "half-open"
        assert breaker.admit() is not None            # concurrent: rejected
        breaker.record_failure(fault)                 # probe failed
        assert breaker.state == "open"
        clock[0] = 25.0
        assert breaker.admit() is None
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.admit() is None
        assert breaker.stats["opened"] == 2

    def test_success_resets_the_consecutive_count(self):
        _clock, breaker = self._breaker(threshold=2)
        fault = EvaluationError("injected")
        for _ in range(3):
            breaker.record_failure(fault)
            breaker.record_success()
        assert breaker.state == "closed"

    def test_only_repro_errors_count(self):
        _clock, breaker = self._breaker(threshold=1)
        for _ in range(5):
            breaker.record_failure(ValueError("client's fault"))
        assert breaker.state == "closed"
        breaker.record_failure(WorkerCrashError("evaluator's fault"))
        assert breaker.state == "open"

    def test_cancel_releases_an_unused_probe(self):
        clock, breaker = self._breaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure(EvaluationError("injected"))
        clock[0] = 11.0
        assert breaker.admit() is None   # probe admitted...
        breaker.cancel()                 # ...but never ran (e.g. 429)
        assert breaker.admit() is None   # the slot is free again

    def test_probe_failing_with_client_error_releases_the_slot(self):
        # Regression: a half-open probe that failed with a *client* error
        # (not a ReproError) used to leak the probe slot — the breaker
        # stayed half-open but rejected every subsequent request forever.
        clock, breaker = self._breaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure(EvaluationError("injected"))
        clock[0] = 11.0
        assert breaker.admit() is None           # probe admitted
        breaker.record_failure(ValueError("bad request rode the probe"))
        assert breaker.state == "half-open"      # client errors don't trip
        assert breaker.admit() is None           # next probe may proceed
