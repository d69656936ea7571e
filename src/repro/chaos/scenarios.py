"""Named end-to-end chaos drills: ``python -m repro chaos <scenario>``.

Each scenario stages a seeded disaster against the crash-safe machinery
and checks the **honest-failure invariant**: a chaos run's rendered
output is either byte-identical to the clean run's, or differs only by
explicit ``FAILED(…)`` cells — it never silently reports wrong numbers.
A violated invariant is data corruption; scenarios return exit code 1
for it (never 0), matching the compliance-failure contract of
``verify``.

Scenarios
---------
``worker-kill``
    Parallel fig1 sweep under ``kill≈0.7`` (kill-once): most tasks
    SIGKILL their sweep worker on first attempt; supervision re-queues
    them and the output must come back byte-identical to a serial clean
    run, with ``worker_restarts > 0`` proving the crashes happened.
``cache-rot``
    A fig1 sweep writes every cache artifact through ``corrupt=1.0``
    bit-rot; a second (chaos-free) run over the same cache must detect
    every rotted artifact via its checksum footer, quarantine it, and
    recompute — both runs byte-identical to clean.
``serve-flaky``
    A real :class:`~repro.serve.DesignEvaluator` behind a
    :class:`~repro.serve.breaker.CircuitBreaker` with an injected clock,
    driven through the full closed → open → half-open → re-open →
    half-open → closed cycle by ``flaky=1.0`` evaluator faults.
``serve-kill``
    A live ``--workers 2`` service under ``kill=0.5`` chaos: evaluator
    workers are SIGKILLed mid-request by the seeded policy; every
    ``/v1/idct`` answer must be either byte-correct (the retried batch)
    or an explicit error status — never a hang, never a silently wrong
    body — and the pool must record the deaths it recovered from.
``fabric-kill``
    A live fabric master (short ``fabric_lease_s``) with a two-process
    pull-worker fleet under ``kill≈0.7`` chaos: workers SIGKILL
    themselves mid-lease on first attempt, their leases expire, the
    master re-queues the tasks, and the fleet respawns the dead
    workers.  The ``--fabric`` sweep must still render byte-identical
    to a clean serial run, with lease expiries > 0 proving the deaths
    happened.
``qos-storm``
    A saturating high-priority tenant storms the job scheduler while an
    anonymous low-priority fig1 job is mid-sweep: the storm preempts the
    light job at a cell boundary, the fair-share queue runs the heavy
    jobs, and the light job's re-run resumes from its checkpoint — its
    final output must be byte-identical to an uninterrupted run, with
    ``preemptions > 0`` proving the storm actually paused it.
``all``
    Every scenario above, worst exit code wins.
"""

from __future__ import annotations

from .policy import ChaosPolicy
from .policy import activate as _activate_chaos

__all__ = ["SCENARIOS", "check_invariant", "run_scenario"]


def check_invariant(clean: str, chaotic: str) -> list[str]:
    """Violations of the honest-failure invariant (empty list = honest).

    Line-set based, not positional: renderers may append ``FAILED(…)``
    lines after the surviving points within a series, so a quarantined
    cell legitimately reorders the chaotic output relative to clean.
    """
    if clean == chaotic:
        return []
    clean_lines = set(clean.splitlines())
    chaotic_lines = chaotic.splitlines()
    failed = [line for line in chaotic_lines if "FAILED(" in line]
    violations = [
        f"silently altered line: {line!r}"
        for line in chaotic_lines
        if line not in clean_lines and "FAILED(" not in line
    ]
    if not failed:
        violations.append(
            "output differs from the clean run without any FAILED(...) "
            "cells — silent data corruption")
    return violations


def _fig1_text(session) -> str:
    """Render a small fig1 sweep through ``session``, memo-cold."""
    from ..eval.experiments import render_fig1
    from ..eval.measure import clear_measure_cache

    clear_measure_cache()
    return render_fig1(session.fig1())


def _report(name: str, violations: list[str]) -> int:
    if violations:
        print(f"chaos {name}: INVARIANT VIOLATED")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(f"chaos {name}: ok")
    return 0


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def _worker_kill(seed: int, jobs: int) -> int:
    from ..api import Session

    clean = _fig1_text(Session(jobs=1))
    session = Session(jobs=max(2, jobs),
                      chaos=ChaosPolicy(seed=seed, kill=0.7))
    chaotic = _fig1_text(session)
    violations = check_invariant(clean, chaotic)
    stats = session.last_runner.stats
    if not stats.get("worker_restarts"):
        violations.append(
            "no worker restarts recorded — the kills never happened, "
            "so the scenario proved nothing")
    if chaotic != clean:
        # Kill-once faults are transient by construction: supervision
        # must recover every task, not just fail it honestly.
        violations.append(
            "kill-once chaos should recover to a byte-identical run, "
            f"but {stats.get('poisoned', 0)} tasks were quarantined")
    print(f"  worker restarts: {stats.get('worker_restarts', 0)}, "
          f"quarantined: {stats.get('poisoned', 0)}")
    return _report("worker-kill", violations)


def _cache_rot(seed: int, jobs: int) -> int:
    import tempfile

    from ..api import Session
    from ..cache import ArtifactCache

    del jobs  # serial on purpose: corruption happens in-process
    clean = _fig1_text(Session(jobs=1))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
        cold_session = Session(
            jobs=1, cache=ArtifactCache(root),
            chaos=ChaosPolicy(seed=seed, corrupt=1.0))
        cold = _fig1_text(cold_session)
        warm_session = Session(jobs=1, cache=ArtifactCache(root))
        warm = _fig1_text(warm_session)
    violations = check_invariant(clean, cold)
    violations += check_invariant(clean, warm)
    corrupt = warm_session.cache.stats["corrupt"]
    if not corrupt:
        violations.append(
            "warm run detected no corrupt artifacts — either the rot "
            "never landed or a rotted artifact was trusted")
    print(f"  artifacts quarantined on re-read: {corrupt}")
    return _report("cache-rot", violations)


def _serve_flaky(seed: int, jobs: int) -> int:
    from ..api import Session
    from ..serve.breaker import CircuitBreaker

    del jobs
    session = Session()
    evaluator = session.evaluator("verilog-initial")
    blocks = [[[0] * 8 for _ in range(8)]]
    clock = [0.0]
    breaker = CircuitBreaker(threshold=2, cooldown_s=10.0,
                             clock=lambda: clock[0])
    transitions: list[str] = []

    def request(policy: ChaosPolicy | None) -> str:
        if breaker.admit() is not None:
            return "rejected"
        try:
            with _activate_chaos(policy):
                evaluator.evaluate(blocks, engine="model")
        except Exception as exc:  # noqa: BLE001 - chaos-injected fault
            breaker.record_failure(exc)
            return "failed"
        breaker.record_success()
        return "ok"

    flaky = ChaosPolicy(seed=seed, flaky=1.0)
    script = [
        # (advance clock by, chaos policy, expected result, expected state)
        (0.0, flaky, "failed", "closed"),
        (0.0, flaky, "failed", "open"),       # threshold=2 trips here
        (0.0, flaky, "rejected", "open"),     # cooldown not elapsed
        (11.0, flaky, "failed", "open"),      # half-open probe fails
        (0.0, None, "rejected", "open"),
        (11.0, None, "ok", "closed"),         # half-open probe succeeds
        (0.0, None, "ok", "closed"),
    ]
    violations = []
    for step, (advance, policy, want, want_state) in enumerate(script):
        clock[0] += advance
        got = request(policy)
        transitions.append(f"{got}/{breaker.state}")
        if got != want or breaker.state != want_state:
            violations.append(
                f"step {step}: expected {want}/{want_state}, "
                f"got {got}/{breaker.state}")
    print(f"  breaker path: {' -> '.join(transitions)} "
          f"(opened {breaker.stats['opened']}x, "
          f"rejected {breaker.stats['rejected']})")
    return _report("serve-flaky", violations)


def _start_server(session, **config):
    """Start an ``EvalServer`` on an ephemeral port in a daemon thread.

    Returns ``(server, thread, port)``; ``port`` is ``None`` when the
    server did not announce one within two minutes.
    """
    import threading

    from ..serve import EvalServer, ServeConfig

    server = EvalServer(session, ServeConfig(port=0, **config))
    ready = threading.Event()
    port: list[int] = []

    def announce(host: str, bound: int) -> None:
        port.append(bound)
        ready.set()

    thread = threading.Thread(
        target=server.serve_forever, kwargs={"announce": announce},
        daemon=True)
    thread.start()
    return server, thread, port[0] if ready.wait(timeout=120) else None


def _serve_kill(seed: int, jobs: int) -> int:
    import http.client
    import json
    import random
    import socket

    from ..api import Session

    design = "verilog-initial"
    rng = random.Random(seed)
    requests = [
        [[[rng.randint(-512, 511) for _ in range(8)] for _ in range(8)]]
        for _ in range(12)
    ]
    golden = {idx: Session().idct(design, blocks)
              for idx, blocks in enumerate(requests)}

    session = Session(chaos=ChaosPolicy(seed=seed, kill=0.5))
    server, thread, port = _start_server(
        session, workers=max(2, jobs), warm=(design,), batch_wait_s=0.0,
        obs=True)
    violations: list[str] = []
    if port is None:
        return _report("serve-kill", ["server never came up"])

    ok = 0
    explicit = 0
    for idx, blocks in enumerate(requests):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            conn.request("POST", "/v1/idct",
                         body=json.dumps({"design": design,
                                          "blocks": blocks}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read()
        except (socket.timeout, ConnectionError) as exc:
            violations.append(f"request {idx}: hung connection ({exc})")
            continue
        finally:
            conn.close()
        if response.status == 200:
            outputs = json.loads(body)["outputs"]
            if outputs != golden[idx]:
                violations.append(
                    f"request {idx}: 200 with a silently wrong body")
            else:
                ok += 1
        elif response.status in (503, 504, 429, 422):
            explicit += 1  # honest, explicit failure
        else:
            violations.append(
                f"request {idx}: unexpected status {response.status}: "
                f"{body[:120]!r}")
    stats = dict(server.pool.stats) if server.pool is not None else {}
    server.request_drain(0)
    thread.join(timeout=60)
    if not stats.get("kills"):
        violations.append(
            "no worker deaths recorded — the kills never happened, "
            "so the scenario proved nothing")
    if not ok:
        violations.append(
            "no request ever succeeded — retry-on-fresh-worker is broken")
    print(f"  responses: {ok} correct, {explicit} explicit errors; "
          f"worker kills: {stats.get('kills', 0)}, "
          f"restarts: {stats.get('restarts', 0)}, "
          f"retries: {stats.get('retries', 0)}")
    return _report("serve-kill", violations)


def _fabric_kill(seed: int, jobs: int) -> int:
    """SIGKILL fabric pull-workers mid-lease; the sweep must converge.

    Kill-once faults are transient: the expired lease re-queues with a
    bumped attempt, the respawned worker measures it cleanly, and the
    task-order merge keeps the rendered output byte-identical to a
    clean serial run — quarantine would be an invariant violation here.
    """
    import multiprocessing

    from ..api import Session
    from ..core.errors import WorkerCrashError
    from ..fabric import run_worker_fleet

    clean = _fig1_text(Session(jobs=1))

    server, thread, port = _start_server(Session(), fabric_lease_s=1.0)
    if port is None:
        return _report("fabric-kill", ["fabric master never came up"])
    master = f"127.0.0.1:{port}"

    # Non-daemon on purpose: the fleet forks its own worker children.
    mp = multiprocessing.get_context("fork")
    fleet = mp.Process(
        target=run_worker_fleet, args=(master, max(2, jobs)),
        kwargs={"chaos": ChaosPolicy(seed=seed, kill=0.7)})
    fleet.start()

    violations: list[str] = []
    chaotic = clean
    session = Session(fabric=master)
    try:
        chaotic = _fig1_text(session)
    except WorkerCrashError as exc:
        violations.append(
            f"kill-once chaos exhausted the sweep's expiry budget: {exc}")
    finally:
        server.request_drain(0)
        thread.join(timeout=60)
        fleet.join(timeout=60)
        if fleet.is_alive():  # pragma: no cover - cleanup of a wedged fleet
            fleet.terminate()
            fleet.join(timeout=10)

    violations += check_invariant(clean, chaotic)
    stats = session.last_runner.stats if session.last_runner else {}
    if not stats.get("worker_restarts"):
        violations.append(
            "no lease expiries recorded — the kills never happened, "
            "so the scenario proved nothing")
    if chaotic != clean:
        violations.append(
            "kill-once chaos should recover to a byte-identical run, "
            f"but {stats.get('poisoned', 0)} tasks were quarantined")
    print(f"  lease expiries recovered: {stats.get('worker_restarts', 0)}, "
          f"quarantined: {stats.get('poisoned', 0)}")
    return _report("fabric-kill", violations)


def _qos_storm(seed: int, jobs: int) -> int:
    """A tenant storm preempts a running sweep; its output must not move.

    The storm is synchronized off the obs event stream, not sleeps: the
    first ``cell.done`` of the light job triggers the heavy-tenant
    submissions, so the light sweep is provably mid-flight (at least one
    cell committed, more to go) when the higher priority arrives.
    """
    import time as _time

    from .. import obs
    from ..api import Session
    from ..obs import events as obs_events
    from ..obs import metrics as obs_metrics
    from ..qos import Keyring, Tenant
    from ..serve.jobs import JobManager

    del seed  # deterministic by construction: no randomness involved
    clean = _fig1_text(Session(jobs=1))

    obs.clear()
    obs.enable()
    keyring = Keyring.from_dict(
        {"tenants": {"heavy": {"weight": 4, "priority": 5}},
         "keys": {"storm-key": "heavy"}},
        default=Tenant())
    manager = JobManager(Session(jobs=max(1, jobs)), max_queued=16,
                         keyring=keyring)
    violations: list[str] = []
    try:
        light = manager.submit("fig1")
        heavy_params = {"bsc_configs": 1, "bambu_configs": 1,
                        "xls_stages": 1}
        heavy_ids: list[str] = []
        stormed = False

        def storm(event: dict) -> None:
            nonlocal stormed
            if stormed or event.get("type") != "cell.done" \
                    or event.get("job") != light.id:
                return
            stormed = True
            for _ in range(2):
                job = manager.submit("fig1", dict(heavy_params),
                                     tenant=keyring.resolve("storm-key"))
                heavy_ids.append(job.id)

        with obs_events.EVENTS.subscribe(storm):
            deadline = _time.monotonic() + 300
            while _time.monotonic() < deadline:
                jobs_now = manager.list()
                if stormed and all(j.status in ("done", "failed")
                                   for j in jobs_now):
                    break
                _time.sleep(0.05)
        manager.drain()
        if not stormed:
            violations.append(
                "the light job finished before the storm could trigger — "
                "the scenario proved nothing")
        for job_id in heavy_ids:
            job = manager.get(job_id)
            if job is None or job.status != "done":
                violations.append(
                    f"heavy job {job_id} did not complete "
                    f"({job.status if job else 'evicted'})")
        if light.status != "done":
            violations.append(
                f"light job never finished under the storm "
                f"(status {light.status!r}: {light.error})")
        elif light.output != clean:
            violations += check_invariant(clean, light.output or "")
            violations.append(
                "preempted-and-resumed output differs from an "
                "uninterrupted run — the checkpoint resume leaked state")
        if not light.preemptions:
            violations.append(
                "no preemption recorded — the storm never paused the "
                "light job, so the scenario proved nothing")
        preempt_count = obs_metrics.snapshot()["counters"].get(
            "qos.preemptions", 0)
        if light.preemptions and not preempt_count:
            violations.append(
                "qos.preemptions counter stayed 0 despite a recorded "
                "preemption — the metrics path is broken")
        print(f"  preemptions: {light.preemptions}, heavy jobs run: "
              f"{len(heavy_ids)}, qos.preemptions counter: "
              f"{preempt_count}")
    finally:
        obs.disable()
    return _report("qos-storm", violations)


SCENARIOS = {
    "worker-kill": _worker_kill,
    "cache-rot": _cache_rot,
    "serve-flaky": _serve_flaky,
    "serve-kill": _serve_kill,
    "fabric-kill": _fabric_kill,
    "qos-storm": _qos_storm,
}


def run_scenario(name: str, seed: int = 3, jobs: int = 2) -> int:
    """Run one scenario (or ``all``); 0 = honest, 1 = invariant violated."""
    if name == "all":
        return max(run_scenario(key, seed=seed, jobs=jobs)
                   for key in SCENARIOS)
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(
            f"unknown chaos scenario {name!r} "
            f"(choices: {', '.join([*SCENARIOS, 'all'])})")
    return scenario(seed, jobs)
