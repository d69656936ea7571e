"""Command-line interface: ``python -m repro <command>``.

A thin shell over :class:`repro.api.Session` — each command builds a
Session carrying the execution policy the flags describe (parallelism,
cache, budgets, checkpointing, tracing) and delegates the work.

Commands:

* ``table1``            — print the tool classification (paper Table I);
* ``table2 [--tools ...] [--jobs N] [--cache DIR] [--csv PATH]
  [--trace PATH] [--metrics PATH]``
  — regenerate the evaluation table (optionally with per-phase traces);
* ``fig1 [--full] [--jobs N] [--cache DIR] [--csv PATH] [--trace PATH]
  [--metrics PATH]``
  — regenerate the DSE scatter;
* ``verify <design> [--engine interp|compiled|batch]`` — build and
  verify one design by name; exits 1 on a compliance failure; the one
  command with an engine choice (sweeps measure on ``compiled``);
* ``engines [--json]`` — list the registered evaluation engines with
  their contexts and capabilities (the :mod:`repro.engines` registry);
  ``--json`` is byte-identical to the service's ``GET /v1/engines``;
* ``measure <design> [--json] [--cache DIR]`` — fully characterize one
  design; ``--json`` dumps the canonical ``Measured.to_json()`` record
  (byte-identical to the service's ``POST /v1/measure`` response);
* ``serve [--host H] [--port P] [--jobs N] [--cache DIR] [--max-batch B]
  [--batch-wait-ms W] [--max-inflight Q] [--budget-s S] [--warm NAME]
  [--workers N] [--worker-deadline-s S] [--worker-crash-budget K]
  [--api-keys FILE] [--quota N] [--rate R] [--burst B] [--weight W]``
  — run the asyncio evaluation service (``/v1/idct`` micro-batching,
  admission control, ``/healthz`` + ``/metrics``; the endpoints are the
  rows of the one route table, ``EvalServer.ROUTES``); ``--workers N``
  (N>1) pre-forks N evaluator processes with (design, engine)-affinity
  routing under the heartbeat → soft cancel → SIGTERM → SIGKILL →
  respawn supervision ladder (its grace and ping periods are
  ``PoolConfig``'s defaults, the job retention ``JobManager``'s);
  SIGTERM drains in-flight work and exits 0, ^C drains and exits 3;
  the same instance doubles as the fabric master
  (``POST /v1/sweeps`` + task leases, ``--fabric-lease-s`` sets the
  lease deadline);
* ``work --master URL [--parallel N] [--batch B] [--cache DIR]
  [--poll-s S] [--max-idle-s S] [--once] [--chaos SPEC]`` — run fabric
  pull-workers against a ``serve`` master: lease tasks, measure them
  through the shared worker path, upload content-addressed artifacts,
  post results; exits 0 when the master goes away (or ``--once`` /
  ``--max-idle-s`` fires), 2 when the master is unreachable at start
  or the worker crash budget is exhausted;
* ``profile <design> [--json] [--trace PATH] [--metrics PATH]`` — run
  one design through the full pipeline with tracing on and print the
  per-phase breakdown; ``--json`` emits the machine-readable profile
  (span tree + phases + metrics) whose totals match the text report;
* ``obs tail <events.jsonl> [--type T] [--limit N]`` — pretty-print a
  structured event log (what ``--events PATH`` on sweeps writes, and
  what ``GET /v1/jobs/<id>/events`` streams as NDJSON over a chunked
  response — replay first, then live events until the job finishes);
* ``obs tree [<trace-id>] [--trace PATH]`` — render the assembled span
  tree of one trace from a ``trace.jsonl`` export (the service's
  ``GET /v1/traces/<id>`` returns the same tree as JSON);
* ``obs diff <metrics_a.json> <metrics_b.json>`` — compare two metrics
  exports counter-by-counter (the offline view behind
  ``scripts/bench_gate.py``);
* ``faults <design> [--limit N] [--seed S] [--smoke]`` — run the
  fault-injection campaign against the compliance verifier; exits 1 when
  the detection rate drops below ``--min-detect``;
* ``chaos <scenario> [--seed S] [--jobs N]`` — run a seeded chaos drill
  (``worker-kill``, ``cache-rot``, ``serve-flaky``, ``serve-kill``,
  ``fabric-kill``, ``qos-storm``, or ``all``) and assert the
  honest-failure invariant; exits 1 on any violation;
* ``list``              — list all registered design names.

``table2`` and ``fig1`` share the execution flags: ``--jobs N`` (measure
design points across N worker processes; stdout stays byte-identical to
a serial run), ``--fabric URL`` (route the sweep through a fabric
master — a ``serve`` instance — and its ``work`` pull-workers instead
of local workers; the task-order merge keeps stdout byte-identical to
serial, and a lease that expires twice quarantines its design as an
honest ``FAILED(…)`` cell exactly like a twice-crashed local worker),
``--cache DIR`` (content-addressed artifact cache reused
across runs and commands), ``--checkpoint PATH`` (JSONL progress log),
``--resume`` (skip designs already in the checkpoint), ``--inject-fault
NAME`` (force a design to fail, repeatable), ``--budget-s`` /
``--budget-cycles`` (per-design budgets), ``--retries``, ``--chaos SPEC``
(seeded fault injection), and the observability exports:
``--trace PATH`` (span JSONL), ``--metrics PATH`` (metrics + phase
timings JSON), ``--events PATH`` (structured event JSONL for ``obs
tail``).  Any of the three turns instrumentation on; each sweep run
mints one trace id that spans and events carry across sweep workers.

The ``--chaos`` grammar is ``key=value[,key=value...]`` with keys
``seed`` (int), ``kill`` / ``poison`` / ``corrupt`` / ``flaky``
(probabilities in [0, 1]; ``kill``/``poison`` also accept ``@substr``
to doom task ids containing the substring) and ``latency`` (seconds of
injected evaluator delay).  ``kill`` SIGKILLs a task's worker on
the first attempt only (supervision recovers it), ``poison`` on every
attempt (the task is quarantined as an explicit ``FAILED(…)`` cell),
``corrupt`` rots written cache artifacts on disk (the checksum footer
catches them on re-read), ``flaky`` makes evaluator calls raise.
Under ``serve --workers N`` the same ``kill``/``poison`` decisions also
target the serving tier: batches carry ``serve:<design>:<engine>:<seq>``
task ids, ``kill`` SIGKILLs the affine evaluator worker on the first
attempt (the batch retries once on a fresh worker), ``poison`` on both
attempts (the request is quarantined and answered with an honest 503 —
the ``serve-kill`` drill asserts exactly this contract).

Multi-tenant QoS grammar: ``serve --api-keys FILE`` loads a JSON keyring
(``{"tenants": {name: {weight, rate_per_s, burst, max_jobs, priority}},
"keys": {api-key: name}}``); requests authenticate with an ``X-Api-Key``
header (no header → the anonymous tenant, unknown key → 403).
``--quota N`` caps the anonymous tenant's queued+running jobs (over
quota → 429 with a computed ``Retry-After``), ``--rate R``/``--burst B``
set its integer token-bucket request rate (0 = unlimited), and
``--weight W`` its fair-share weight: job and fabric queues dequeue by
weighted deficit round-robin across tenants, so a weight-``W`` tenant
gets ``W`` cells per scheduling round and nobody starves.  On the
client side ``table2``/``fig1`` accept ``--api-key KEY`` (identifies
the tenant to a ``--fabric`` master) and ``--priority P`` (orders the
tenant's own sweeps; a higher-priority arrival preempts a running sweep
at the next cell boundary and the preempted sweep resumes from its
checkpoint with stdout byte-identical to an uninterrupted run).

Exit-code contract (stable — scripts and CI may rely on it):

====  ==========================================================
code  meaning
====  ==========================================================
0     success (including a ``BrokenPipeError`` from a closed pager)
1     compliance/verification failure, fault-detection rate below
      ``--min-detect``, or a chaos drill detecting data corruption
      (a violated honest-failure invariant is **never** exit 0)
2     usage error: unknown design/tool/engine name, bad arguments
      (argparse also exits 2)
3     interrupted sweep (``SweepInterrupted`` or ^C); the
      checkpoint stays consistent for ``--resume``
====  ==========================================================

``serve`` maps its lifecycle onto the same contract: a SIGTERM drain
(finish in-flight work, then exit) is success (0), ^C drains but exits 3,
and an unusable ``--port`` or unknown ``--warm`` design is a usage
error (2).

Design names accept frontend-package aliases (``vlog-opt`` for
``verilog-opt``, ``hc-opt`` for ``chisel-opt``, ``rules-*`` for
``bsv-*``, ``flow-initial``/``flow-opt`` for ``xls-s0``/``xls-s8``);
resolution lives in :func:`repro.api.resolve_design`.
"""

from __future__ import annotations

import argparse
import csv
import sys

__all__ = ["main"]


def _cmd_table1(_args) -> int:
    from .eval import render_table1

    print(render_table1())
    return 0


def _obs_start(args) -> None:
    """Attach the ``--events`` file sink (after the Session cleared obs)."""
    if getattr(args, "events", None):
        from .obs import events as obs_events

        obs_events.EVENTS.attach(args.events)


def _obs_finish(args, active: bool) -> None:
    """Export the requested artifacts and disable instrumentation."""
    if not active:
        return
    from . import obs
    from .obs.report import write_metrics_json, write_trace_jsonl

    if args.trace:
        count = write_trace_jsonl(args.trace)
        print(f"wrote {count} trace records to {args.trace}")
    if args.metrics:
        write_metrics_json(args.metrics)
        print(f"wrote metrics to {args.metrics}")
    if getattr(args, "events", None):
        from .obs import events as obs_events

        obs_events.EVENTS.detach()
        print(f"wrote events to {args.events}")
    obs.disable()


def _make_session(args, *, trace: bool = False):
    """Build the Session the table2/fig1 execution flags describe."""
    from .api import Session
    from .resilience.runner import RunnerConfig

    config = RunnerConfig(wall_s=args.budget_s, max_cycles=args.budget_cycles,
                          retries=args.retries)
    return Session(jobs=args.jobs, cache=args.cache, runner=config,
                   trace=trace, checkpoint=args.checkpoint,
                   resume=args.resume,
                   inject_faults=args.inject_fault or [],
                   max_tasks_per_child=args.max_tasks_per_child or None,
                   chaos=args.chaos,
                   fabric=getattr(args, "fabric", None),
                   priority=getattr(args, "priority", 0) or 0,
                   api_key=getattr(args, "api_key", None))


def _print_summaries(session) -> None:
    for line in session.summary_lines():
        print(line, file=sys.stderr)


def _cmd_table2(args) -> int:
    from .eval import render_table2

    tracing = bool(args.trace or args.metrics or args.events)
    session = _make_session(args, trace=tracing)
    _obs_start(args)
    table = session.table2(tools=args.tools or None)
    print(render_table2(table))
    _print_summaries(session)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([
                "tool", "config", "loc", "fmax_mhz", "latency", "periodicity",
                "throughput_mops", "area", "lut_star", "ff_star", "lut", "ff",
                "dsp", "n_io", "quality", "automation_pct",
                "controllability_pct", "flexibility",
            ])
            for key, column in table.columns.items():
                if column.failed:
                    # No numbers to report; the failure is in the rendered
                    # table and the checkpoint.
                    continue
                for measured, alpha in (
                    (column.initial, column.automation_initial),
                    (column.optimized, column.automation_opt),
                ):
                    writer.writerow([
                        key, measured.config, measured.loc,
                        round(measured.fmax_mhz, 2), measured.latency,
                        measured.periodicity,
                        round(measured.throughput_mops, 3), measured.area,
                        measured.lut_star, measured.ff_star, measured.lut,
                        measured.ff, measured.dsp, measured.n_io,
                        round(measured.quality, 1), round(alpha, 1),
                        round(column.controllability, 1),
                        round(column.flexibility, 1),
                    ])
        print(f"\nwrote {args.csv}")
    _obs_finish(args, tracing)
    return 0


def _cmd_fig1(args) -> int:
    from .eval.experiments import render_fig1

    tracing = bool(args.trace or args.metrics or args.events)
    session = _make_session(args, trace=tracing)
    _obs_start(args)
    series = session.fig1(full=args.full)
    print(render_fig1(series))
    _print_summaries(session)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["tool", "config", "throughput_mops", "area"])
            for entry in series:
                for config, throughput, area in entry.points:
                    writer.writerow([entry.tool, config,
                                     round(throughput, 3), area])
        print(f"\nwrote {args.csv}")
    _obs_finish(args, tracing)
    return 0


def _cmd_engines(args) -> int:
    from .engines import engine_specs, render_engines_json

    if args.json:
        # One-serialization-path rule: these bytes are exactly the
        # service's GET /v1/engines response body.
        sys.stdout.write(render_engines_json())
        return 0
    for spec in engine_specs():
        caps = [label for label, on in (
            ("batchable", spec.batchable),
            ("bit-exact-reference", spec.bit_exact_reference),
            ("warm-start", spec.warm_start)) if on]
        tags = "".join(f"  default[{ctx}]" for ctx in spec.default_for)
        caps_txt = f"  ({', '.join(caps)})" if caps else ""
        print(f"{spec.name:<9} contexts={','.join(spec.contexts)}"
              f"{tags}{caps_txt}")
        print(f"          {spec.summary}")
    return 0


def _cmd_verify(args) -> int:
    from .api import Session, resolve_design
    from .core.errors import EvaluationError

    name = resolve_design(args.design)
    try:
        measured = Session(cache=getattr(args, "cache", None)).verify(
            name, engine=args.engine)
    except EvaluationError as exc:
        print(f"{name}: COMPLIANCE FAILURE — {exc}", file=sys.stderr)
        return 1
    # No engine tag in the output: every sim engine must produce the
    # same measurement, so `verify --engine batch` stays byte-identical
    # to `--engine compiled` (asserted by the check.sh engine smoke).
    status = "OK (bit-exact)" if measured.bit_exact else "MISMATCH"
    print(f"{name}: {status}")
    _print_measured(measured)
    return 0 if measured.bit_exact else 1


def _print_measured(measured) -> None:
    """The latency, fmax and area lines ``verify`` and ``measure`` share."""
    print(f"  latency {measured.latency} cycles, periodicity "
          f"{measured.periodicity} cycles")
    print(f"  fmax {measured.fmax_mhz:.2f} MHz, throughput "
          f"{measured.throughput_mops:.2f} MOPS")
    print(f"  area {measured.area} (N*LUT {measured.lut_star} + "
          f"N*FF {measured.ff_star}), {measured.dsp} DSP, {measured.n_io} IO")


def _cmd_measure(args) -> int:
    from .api import Session
    from .core.errors import EvaluationError

    session = Session(cache=args.cache)
    try:
        measured = session.measure(args.design)
    except EvaluationError as exc:
        from .api import UsageError

        if isinstance(exc, UsageError):
            raise
        print(f"{args.design}: COMPLIANCE FAILURE — {exc}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(measured.to_json())
    else:
        print(f"{measured.name} ({measured.language}/{measured.tool}, "
              f"{measured.config})")
        print(f"  bit-exact: {measured.bit_exact}  loc {measured.loc}")
        _print_measured(measured)
    _print_summaries(session)
    return 0 if measured.bit_exact else 1


def _cmd_serve(args) -> int:
    from .api import Session

    session = Session(jobs=args.jobs, cache=args.cache, chaos=args.chaos)

    def announce(host: str, port: int) -> None:
        print(f"serving on {host}:{port}", flush=True)

    try:
        return session.serve(
            announce=announce,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            batch_wait_s=args.batch_wait_ms / 1000.0,
            max_inflight=args.max_inflight,
            max_jobs=args.max_jobs,
            request_budget_s=args.budget_s,
            warm=tuple(args.warm or ()),
            drain_grace_s=args.drain_grace_s,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown_s,
            job_journal=args.journal,
            resume_jobs=args.resume_jobs,
            workers=args.workers,
            worker_deadline_s=args.worker_deadline_s,
            worker_crash_budget=args.worker_crash_budget,
            fabric_lease_s=args.fabric_lease_s,
            api_keys=args.api_keys,
            tenant_quota=args.quota,
            tenant_rate=args.rate,
            tenant_burst=args.burst,
            tenant_weight=args.weight,
        )
    except OSError as exc:
        print(f"cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2


def _cmd_work(args) -> int:
    from .chaos import parse_chaos_spec
    from .core.errors import UsageError
    from .fabric import run_worker_fleet

    chaos = None
    if args.chaos:
        try:
            chaos = parse_chaos_spec(args.chaos)
        except ValueError as exc:
            raise UsageError(f"bad --chaos spec: {exc}") from exc
    run_worker_fleet(
        args.master, args.parallel, batch=args.batch,
        cache_dir=args.cache, chaos=chaos, poll_s=args.poll_s,
        max_idle_s=args.max_idle_s, once=args.once)
    return 0


def _cmd_profile(args) -> int:
    from .api import Session
    from .obs.report import (
        render_profile,
        render_profile_json,
        write_metrics_json,
        write_trace_jsonl,
    )

    session = Session(trace=True)
    try:
        design, measured = session.profile(args.design)
        if args.json:
            # One serialization path: the same span records and registry
            # the text report renders, serialized once, canonically.
            sys.stdout.write(render_profile_json(extra={
                "design": design.name,
                "config": design.config,
                "tool": design.tool,
                "bit_exact": measured.bit_exact,
            }))
        else:
            print(f"profile of {design.name} "
                  f"({design.language}/{design.tool}, {design.config})")
            print(f"  bit-exact: {measured.bit_exact}  "
                  f"latency {measured.latency}  "
                  f"periodicity {measured.periodicity}  "
                  f"fmax {measured.fmax_mhz:.2f} MHz")
            print()
            print(render_profile())
        if args.trace:
            count = write_trace_jsonl(args.trace)
            print(f"\nwrote {count} trace records to {args.trace}")
        if args.metrics:
            write_metrics_json(args.metrics)
            print(f"wrote metrics to {args.metrics}")
    finally:
        session.close()
    return 0


def _format_event(event: dict) -> str:
    """One ``obs tail`` line: seq, type, trace tag, then sorted fields."""
    head = f"{event.get('seq', 0):>6}  {event.get('type', '?'):<16}"
    trace = event.get("trace")
    if trace:
        head += f"  [{trace}]"
    skip = {"seq", "type", "ts", "trace", "span"}
    fields = "  ".join(f"{key}={event[key]}" for key in sorted(event)
                       if key not in skip)
    return f"{head}  {fields}".rstrip()


def _cmd_obs_tail(args) -> int:
    from .core import jsonl

    try:
        events = jsonl.read(args.file)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    if args.type:
        events = [e for e in events if e.get("type") == args.type]
    if args.limit:
        events = events[-args.limit:]
    for event in events:
        print(_format_event(event))
    return 0


def _cmd_obs_tree(args) -> int:
    from .core import jsonl
    from .obs.report import render_tree
    from .obs.trace import SpanRecord

    try:
        data = jsonl.read(args.trace)
    except OSError as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    records = []
    for span in data:
        try:
            records.append(SpanRecord.from_dict(span))
        except KeyError:
            continue  # a record that is not a span
    print(render_tree(records, args.trace_id))
    return 0


def _cmd_obs_diff(args) -> int:
    import json

    def load(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return None

    before, after = load(args.a), load(args.b)
    if before is None or after is None:
        return 2
    changed = 0
    for kind in ("counters", "gauges"):
        old = (before.get("metrics") or {}).get(kind, {})
        new = (after.get("metrics") or {}).get(kind, {})
        for name in sorted(set(old) | set(new)):
            a, b = old.get(name, 0), new.get(name, 0)
            if a == b:
                continue
            changed += 1
            delta = b - a
            pct = f" ({delta / a:+.1%})" if a else ""
            print(f"{name:<40s} {a:>14g} -> {b:<14g} {delta:+g}{pct}")
    if not changed:
        print("no counter/gauge differences")
    return 0


def _cmd_faults(args) -> int:
    import json

    from .api import Session
    from .rtl.elaborate import elaborate

    session = Session()
    design = session.build(args.design)

    if args.smoke:
        # Deterministic single-fault check: flip one bit of an output data
        # driver and require the verifier to flag it.
        from .resilience.campaign import run_mutant
        from .resilience.faults import inject, output_data_sites

        netlist = elaborate(design.top)
        sites = output_data_sites(netlist)
        if not sites:
            print(f"{design.name}: no output data sites to mutate",
                  file=sys.stderr)
            return 2
        site = sites[0]
        verdict = run_mutant(design, inject(netlist, site, "flip"))
        label = site.describe("flip")
        if verdict is None:
            print(f"{design.name}: fault {label} NOT detected", file=sys.stderr)
            return 1
        print(f"{design.name}: fault {label} detected ({verdict})")
        return 0

    report = session.faults(args.design, limit=args.limit, seed=args.seed)
    print(f"fault-injection campaign on {design.name}:")
    print(f"  mutants: {report.total}  "
          f"detection rate: {report.detection_rate:.1%}  "
          f"(gate-only: {report.strict_rate:.1%})")
    for verdict, count in report.by_verdict().items():
        print(f"  {verdict:12s} {count}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"wrote {args.report}")
    if report.detection_rate < args.min_detect:
        print(f"FAIL: detection rate {report.detection_rate:.1%} below "
              f"required {args.min_detect:.0%}", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    from .chaos.scenarios import run_scenario

    return run_scenario(args.scenario, seed=args.seed, jobs=args.jobs)


def _cmd_list(_args) -> int:
    from .api import design_names

    for name in design_names():
        print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    from .chaos.scenarios import SCENARIOS
    from .engines import engine_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'HLS versus Hardware Construction' (DATE 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I").set_defaults(fn=_cmd_table1)

    def add_runner_args(p) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="measure design points across N worker "
                            "processes (output is byte-identical to serial)")
        p.add_argument("--cache", metavar="DIR",
                       help="content-addressed artifact cache directory "
                            "(reused across runs and commands)")
        p.add_argument("--checkpoint",
                       help="JSONL checkpoint path for this sweep")
        p.add_argument("--resume", action="store_true",
                       help="skip designs already in --checkpoint")
        p.add_argument("--inject-fault", action="append", metavar="NAME",
                       help="force this design to fail (repeatable)")
        p.add_argument("--budget-s", type=float, default=None,
                       help="wall-clock budget per design, seconds")
        p.add_argument("--budget-cycles", type=int, default=None,
                       help="simulation-cycle budget per design")
        p.add_argument("--retries", type=int, default=1,
                       help="same-config retries per design (default 1)")
        p.add_argument("--max-tasks-per-child", type=int, default=64,
                       metavar="T",
                       help="recycle sweep workers after T tasks each "
                            "(bounds worker memory; 0 disables)")
        p.add_argument("--chaos", metavar="SPEC",
                       help="seeded fault injection, e.g. "
                            "'seed=3,kill=0.5,corrupt=0.1' "
                            "(keys: seed, kill, poison, corrupt, flaky, "
                            "latency; kill/poison also take @substr "
                            "task-id targets)")
        p.add_argument("--fabric", metavar="URL",
                       help="route the sweep through a fabric master "
                            "(a `serve` instance) and its `work` "
                            "pull-workers instead of local workers; "
                            "output stays byte-identical to serial")
        p.add_argument("--api-key", metavar="KEY",
                       help="QoS tenant credential sent to the --fabric "
                            "master (X-Api-Key header)")
        p.add_argument("--priority", type=int, default=0, metavar="P",
                       help="sweep priority within the tenant (higher "
                            "preempts lower at cell boundaries; default 0)")

    p_table2 = sub.add_parser("table2", help="regenerate Table II")
    p_table2.add_argument("--tools", nargs="*", help="restrict to tool keys")
    p_table2.add_argument("--csv", help="also write CSV to this path")
    p_table2.add_argument("--trace", help="write span trace (JSON lines)")
    p_table2.add_argument("--metrics",
                          help="write metrics + per-design phase timings (JSON)")
    p_table2.add_argument("--events",
                          help="write structured event log (JSON lines)")
    add_runner_args(p_table2)
    p_table2.set_defaults(fn=_cmd_table2)

    p_fig1 = sub.add_parser("fig1", help="regenerate Figure 1 (DSE)")
    p_fig1.add_argument("--full", action="store_true",
                        help="full 26/42/19-point sweeps")
    p_fig1.add_argument("--csv", help="also write CSV to this path")
    p_fig1.add_argument("--trace", help="write span trace (JSON lines)")
    p_fig1.add_argument("--metrics",
                        help="write metrics + per-design phase timings (JSON)")
    p_fig1.add_argument("--events",
                        help="write structured event log (JSON lines)")
    add_runner_args(p_fig1)
    p_fig1.set_defaults(fn=_cmd_fig1)

    p_verify = sub.add_parser("verify", help="verify one design by name")
    p_verify.add_argument("design")
    p_verify.add_argument("--engine", choices=engine_names("sim"),
                          default="compiled",
                          help="simulator evaluation engine")
    p_verify.add_argument("--cache", metavar="DIR",
                          help="content-addressed artifact cache directory "
                               "(warm verify reuses measurements)")
    p_verify.set_defaults(fn=_cmd_verify)

    p_engines = sub.add_parser(
        "engines", help="list registered evaluation engines")
    p_engines.add_argument("--json", action="store_true",
                           help="dump the canonical registry JSON "
                                "(matches GET /v1/engines byte-for-byte)")
    p_engines.set_defaults(fn=_cmd_engines)

    p_measure = sub.add_parser(
        "measure", help="fully characterize one design by name")
    p_measure.add_argument("design")
    p_measure.add_argument("--json", action="store_true",
                           help="dump the canonical Measured record "
                                "(matches POST /v1/measure byte-for-byte)")
    p_measure.add_argument("--cache", metavar="DIR",
                           help="content-addressed artifact cache directory")
    p_measure.set_defaults(fn=_cmd_measure)

    p_serve = sub.add_parser(
        "serve", help="run the asyncio evaluation service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8349,
                         help="TCP port (0 picks a free one; the chosen "
                              "port is announced on stdout)")
    p_serve.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for sweep jobs")
    p_serve.add_argument("--cache", metavar="DIR",
                         help="artifact cache for warm starts and sweeps")
    p_serve.add_argument("--max-batch", type=int, default=16, metavar="B",
                         help="blocks per /v1/idct batch window (default 16)")
    p_serve.add_argument("--batch-wait-ms", type=float, default=5.0,
                         metavar="W",
                         help="max extra latency a request may wait for "
                              "its batch to fill (default 5 ms)")
    p_serve.add_argument("--max-inflight", type=int, default=64, metavar="Q",
                         help="admitted compute requests before 429")
    p_serve.add_argument("--max-jobs", type=int, default=8,
                         help="queued sweep jobs before 429")
    p_serve.add_argument("--budget-s", type=float, default=None,
                         help="wall-clock budget per request (504 past it)")
    p_serve.add_argument("--warm", action="append", metavar="NAME",
                         help="measure this design at startup (repeatable; "
                              "hits the cache when warm)")
    p_serve.add_argument("--drain-grace-s", type=float, default=30.0,
                         help="max seconds to finish in-flight work on "
                              "SIGTERM (default 30)")
    p_serve.add_argument("--journal", metavar="PATH",
                         help="JSONL write-ahead journal for sweep jobs; a "
                              "restarted server lists jobs it lost as "
                              "'interrupted'")
    p_serve.add_argument("--resume-jobs", action="store_true",
                         help="re-run journaled interrupted jobs at startup")
    p_serve.add_argument("--breaker-threshold", type=int, default=5,
                         metavar="N",
                         help="consecutive evaluator failures that open "
                              "the circuit breaker (default 5)")
    p_serve.add_argument("--breaker-cooldown-s", type=float, default=30.0,
                         help="seconds the breaker stays open before its "
                              "half-open probe (default 30)")
    p_serve.add_argument("--workers", type=int, default=1, metavar="N",
                         help="pre-forked evaluator worker processes; >1 "
                              "routes /v1/idct batches by (design, engine) "
                              "affinity under the kill/restart ladder "
                              "(default 1: in-process compute thread)")
    p_serve.add_argument("--worker-deadline-s", type=float, default=300.0,
                         help="per-batch wall deadline in the worker pool "
                              "before the soft-cancel→SIGTERM→SIGKILL "
                              "ladder engages (default 300)")
    p_serve.add_argument("--worker-crash-budget", type=int, default=None,
                         metavar="K",
                         help="total worker deaths tolerated before the "
                              "pool stops respawning and answers 503 "
                              "(default: scaled to the pool size)")
    p_serve.add_argument("--chaos", metavar="SPEC",
                         help="seeded fault injection for drills, e.g. "
                              "'seed=3,flaky=0.5,latency=0.1'")
    p_serve.add_argument("--fabric-lease-s", type=float, default=30.0,
                         metavar="S",
                         help="fabric task lease duration; a pull-worker "
                              "silent this long is presumed dead and its "
                              "task re-queues (default 30)")
    p_serve.add_argument("--api-keys", metavar="FILE",
                         help="JSON keyring mapping API keys to QoS "
                              "tenants (weight, rate, burst, quota, "
                              "priority); requests without a key run as "
                              "the anonymous tenant")
    p_serve.add_argument("--quota", type=int, default=None, metavar="N",
                         help="queued+running sweep jobs per anonymous "
                              "tenant before 429 (default: unlimited)")
    p_serve.add_argument("--rate", type=int, default=0, metavar="R",
                         help="anonymous-tenant request rate per second, "
                              "token bucket (default 0: unlimited)")
    p_serve.add_argument("--burst", type=int, default=8, metavar="B",
                         help="anonymous-tenant token-bucket burst "
                              "(default 8)")
    p_serve.add_argument("--weight", type=int, default=1, metavar="W",
                         help="anonymous-tenant fair-share weight "
                              "(default 1)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_work = sub.add_parser(
        "work", help="run a fabric pull-worker against a serve master")
    p_work.add_argument("--master", required=True, metavar="URL",
                        help="fabric master address, e.g. 127.0.0.1:8349 "
                             "(a `serve` instance)")
    p_work.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="forked worker processes; dead ones respawn "
                             "under a crash budget (default 1)")
    p_work.add_argument("--batch", type=int, default=1, metavar="B",
                        help="tasks leased per pull (default 1)")
    p_work.add_argument("--cache", metavar="DIR",
                        help="local artifact cache; entries written per "
                             "task are uploaded to the master's "
                             "content-addressed store")
    p_work.add_argument("--poll-s", type=float, default=0.2, metavar="S",
                        help="idle poll interval (default 0.2)")
    p_work.add_argument("--max-idle-s", type=float, default=None,
                        metavar="S",
                        help="exit after this long without work "
                             "(default: wait until the master goes away)")
    p_work.add_argument("--once", action="store_true",
                        help="exit at the first idle poll after having "
                             "completed work (smoke tests)")
    p_work.add_argument("--chaos", metavar="SPEC",
                        help="seeded fault injection for drills "
                             "(kill= SIGKILLs this worker mid-lease)")
    p_work.set_defaults(fn=_cmd_work)

    p_chaos = sub.add_parser(
        "chaos", help="run a chaos drill asserting the honest-failure "
                      "invariant")
    p_chaos.add_argument("scenario", choices=(*SCENARIOS, "all"))
    p_chaos.add_argument("--seed", type=int, default=3,
                         help="chaos policy seed (default 3)")
    p_chaos.add_argument("--jobs", type=int, default=2,
                         help="worker processes for the chaotic sweep "
                              "(default 2)")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_profile = sub.add_parser(
        "profile", help="trace one design through the pipeline")
    p_profile.add_argument("design")
    p_profile.add_argument("--json", action="store_true",
                           help="machine-readable profile (span tree, phase "
                                "breakdown, metrics) on stdout")
    p_profile.add_argument("--trace", help="write span trace (JSON lines)")
    p_profile.add_argument("--metrics", help="write metrics JSON")
    p_profile.set_defaults(fn=_cmd_profile)

    p_obs = sub.add_parser(
        "obs", help="inspect exported observability artifacts")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_tail = obs_sub.add_parser(
        "tail", help="print events from a --events JSONL export")
    p_tail.add_argument("file", help="event log path (JSON lines)")
    p_tail.add_argument("--type", help="only events of this type "
                                       "(e.g. cell.done, worker.restart)")
    p_tail.add_argument("--limit", type=int, default=0, metavar="N",
                        help="only the last N matching events")
    p_tail.set_defaults(fn=_cmd_obs_tail)

    p_tree = obs_sub.add_parser(
        "tree", help="render the span tree from a --trace JSONL export")
    p_tree.add_argument("trace_id", nargs="?", default=None,
                        help="trace id to assemble (default: the only one)")
    p_tree.add_argument("--trace", default="trace.jsonl",
                        help="span trace path (default: trace.jsonl)")
    p_tree.set_defaults(fn=_cmd_obs_tree)

    p_diff = obs_sub.add_parser(
        "diff", help="diff two --metrics JSON exports")
    p_diff.add_argument("a", help="baseline metrics JSON")
    p_diff.add_argument("b", help="candidate metrics JSON")
    p_diff.set_defaults(fn=_cmd_obs_diff)

    p_faults = sub.add_parser(
        "faults", help="fault-injection campaign against the verifier")
    p_faults.add_argument("design")
    p_faults.add_argument("--limit", type=int, default=64,
                          help="mutants to sample (default 64)")
    p_faults.add_argument("--seed", type=int, default=1,
                          help="campaign sampling seed")
    p_faults.add_argument("--report", help="write campaign report JSON")
    p_faults.add_argument("--min-detect", type=float, default=0.95,
                          help="required detection rate (default 0.95)")
    p_faults.add_argument("--smoke", action="store_true",
                          help="inject one output-bit flip and require "
                               "detection (fast CI check)")
    p_faults.set_defaults(fn=_cmd_faults)

    sub.add_parser("list", help="list design names").set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    from .api import UsageError
    from .core.errors import SweepInterrupted

    try:
        return args.fn(args)
    except UsageError as exc:
        # The bare message; the [design=…, phase=…] provenance suffix is
        # for failure records, not usage errors.
        print(exc.message or str(exc), file=sys.stderr)
        return 2
    except SweepInterrupted as exc:
        checkpoint = getattr(args, "checkpoint", None)
        print(f"sweep interrupted: {exc}", file=sys.stderr)
        if checkpoint:
            print(f"resume with: --checkpoint {checkpoint} --resume",
                  file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
