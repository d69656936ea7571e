"""Stable programmatic facade: ``repro.api``.

:class:`Session` is the supported entry point for driving the
reproduction pipeline from Python (the CLI and ``scripts/check.sh`` go
through it).  It owns *execution policy* — parallelism (``jobs``), the
content-addressed artifact cache (``cache``), runner budgets/retries
(``runner``), checkpointing, and tracing — while the underlying
generators (:mod:`repro.eval.experiments`), the measurement pipeline
(:mod:`repro.eval.measure`), and the fault campaign
(:mod:`repro.resilience.campaign`) stay policy-free and remain
importable directly for backward compatibility::

    from repro.api import Session

    session = Session(jobs=4, cache="/tmp/repro-cache")
    table = session.table2()
    series = session.fig1(full=True)
    measured = session.verify("bambu-opt")

Design names everywhere accept frontend-package aliases (``vlog-opt``
for ``verilog-opt``, ``hc-*`` for ``chisel-*``, ``rules-*`` for
``bsv-*``, ``flow-initial``/``flow-opt`` for ``xls-s0``/``xls-s8``);
:func:`resolve_design` is the one place that resolution lives, and it
raises :class:`UnknownDesignError` listing near-miss names.
"""

from __future__ import annotations

import difflib
import os
from contextlib import contextmanager, nullcontext

from .cache import ArtifactCache
from .cache import activate as _activate_cache
from .chaos import ChaosPolicy, parse_chaos_spec
from .chaos import activate as _activate_chaos
from .core.errors import UsageError
from .engines import (
    ENGINES,
    EngineSpec,
    UnknownEngineError,
    default_engine,
    engine_names,
    engine_specs,
    engines_payload,
    render_engines_json,
    resolve_engine,
)
from .eval.measure import Measured, measure_design
from .frontends.base import Design, Recipe
from .resilience.checkpoint import Checkpoint
from .resilience.runner import RunnerConfig, SweepRunner

# Default worker-recycling stride (mirrored from repro.exec without
# importing it eagerly — exec pulls in multiprocessing machinery).
_DEFAULT_RECYCLE = 64

__all__ = [
    "Session",
    "resolve_design",
    "resolve_recipe",
    "find_recipe",
    "find_design",
    "design_names",
    "canonical_name",
    "UsageError",
    "UnknownDesignError",
    "UnknownToolError",
    "UnknownEngineError",
    "EngineSpec",
    "ENGINES",
    "engine_specs",
    "engine_names",
    "resolve_engine",
    "default_engine",
    "engines_payload",
    "render_engines_json",
    "PREFIX_ALIASES",
    "NAME_ALIASES",
]


# ----------------------------------------------------------------------
# design-name resolution
# ----------------------------------------------------------------------

# Frontend package names double as design-name aliases for the paper's
# language names (the packages are named after the *paradigm*, the designs
# after the *language/tool*).
PREFIX_ALIASES = {
    "vlog": "verilog",
    "hc": "chisel",
    "rules": "bsv",
    "flow": "xls",
}
NAME_ALIASES = {
    "xls-initial": "xls-s0",
    "xls-opt": "xls-s8",
}


# UsageError itself now lives in repro.core.errors (so leaf modules like
# the engine registry can raise it); re-exported here unchanged.

class UnknownDesignError(UsageError):
    """No registered design matches the requested name (or any alias)."""

    def __init__(self, message: str, *, name: str,
                 suggestions: list[str] | None = None) -> None:
        super().__init__(message, design=name, phase="api.resolve")
        self.name = name
        self.suggestions = suggestions or []


class UnknownToolError(UsageError):
    """No Table II column matches the requested tool key."""

    def __init__(self, message: str, *, name: str,
                 suggestions: list[str] | None = None) -> None:
        super().__init__(message, design=name, phase="api.resolve")
        self.name = name
        self.suggestions = suggestions or []


def canonical_name(name: str) -> str:
    """Map a possibly-aliased design name to its canonical spelling.

    Purely syntactic — the result is not checked against the registry
    (use :func:`resolve_design` for that).
    """
    prefix, _, rest = name.partition("-")
    if rest and prefix in PREFIX_ALIASES:
        name = f"{PREFIX_ALIASES[prefix]}-{rest}"
    return NAME_ALIASES.get(name, name)


def find_recipe(name: str) -> Recipe | None:
    """The registered recipe for ``name`` (alias-aware), or ``None``.

    A dict lookup: nothing is built.
    """
    from .eval.experiments import RECIPES

    return RECIPES.get(canonical_name(name))


def find_design(name: str):
    """Build the design registered as ``name`` (alias-aware).

    Returns ``(design, factory)`` so callers can rebuild it (e.g. under
    tracing), or ``(None, None)`` when the name is unknown.
    """
    recipe = find_recipe(name)
    if recipe is None:
        return None, None
    return recipe.build(), recipe.build


def design_names() -> list[str]:
    """All registered canonical design names (nothing is built)."""
    from .eval.experiments import RECIPES

    return sorted(RECIPES)


def _alias_spellings(names: list[str]) -> list[str]:
    """Every aliased spelling of ``names`` (for near-miss suggestions)."""
    reverse_prefix = {v: k for k, v in PREFIX_ALIASES.items()}
    reverse_name = {v: k for k, v in NAME_ALIASES.items()}
    spellings = set()
    for name in names:
        if name in reverse_name:
            spellings.add(reverse_name[name])
        prefix, _, rest = name.partition("-")
        if rest and prefix in reverse_prefix:
            spellings.add(f"{reverse_prefix[prefix]}-{rest}")
    return sorted(spellings)


def resolve_recipe(name: str) -> Recipe:
    """The recipe for ``name``, alias-aware and validated.

    Raises :class:`UnknownDesignError` with near-miss suggestions when no
    registered design matches — the error message is what ``verify``,
    ``profile``, and ``faults`` print before exiting with code 2.
    """
    recipe = find_recipe(name)
    if recipe is not None:
        return recipe
    names = design_names()
    close = difflib.get_close_matches(
        name, names + _alias_spellings(names), n=3, cutoff=0.5)
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    raise UnknownDesignError(
        f"unknown design {name!r}{hint} (try `python -m repro list`)",
        name=name, suggestions=close)


def resolve_design(name: str) -> str:
    """The canonical design name for ``name`` (see :func:`resolve_recipe`)."""
    return resolve_recipe(name).name


# ----------------------------------------------------------------------
# the Session facade
# ----------------------------------------------------------------------

class Session:
    """One configured execution context for the reproduction pipeline.

    Parameters
    ----------
    jobs:
        Design points measured concurrently in sweeps; ``> 1`` shards
        ``table2``/``fig1`` across forked worker processes
        (:class:`repro.exec.ParallelSweepRunner`) with stdout guaranteed
        byte-identical to a serial run.
    cache:
        An :class:`~repro.cache.ArtifactCache` or a directory path.
        While set, measurements and elaborated netlists are reused from
        disk across runs *and across commands*, keyed by design + phase
        + source-tree digest.
    runner:
        Sweep policy: a :class:`~repro.resilience.runner.RunnerConfig`
        (budgets/retries), a prebuilt
        :class:`~repro.resilience.runner.SweepRunner` (used as-is, e.g.
        in tests), or ``None`` for defaults.
    trace:
        Enable ``repro.obs`` instrumentation for this session's work
        (the caller exports/disable via :mod:`repro.obs.report`).
    checkpoint / resume:
        JSONL sweep checkpoint path and whether to resume from it.
    inject_faults:
        Design names (alias-aware) forced to fail, for resilience drills.
    max_tasks_per_child:
        Recycle sweep workers after this many tasks each (bounds
        worker memory on long-running services); ``None`` disables.
    chaos:
        A :class:`~repro.chaos.ChaosPolicy` or a ``--chaos`` spec string
        (``seed=3,kill=0.5,…``); active for this session's work,
        including sweep workers and the evaluation service.  A bad spec
        raises :class:`UsageError` (CLI exit 2).
    preempt:
        QoS hook: a callable polled at every sweep-cell boundary (after
        the cell's checkpoint record is durable); returning true raises
        :class:`~repro.core.errors.SweepPreempted`.  The serve tier's
        job scheduler uses this to pause a running sweep for a
        higher-priority arrival and resume it byte-identically later.
    priority / api_key:
        Stamped on fabric sweep submissions: the broker schedules
        tenants fair-share and orders a tenant's sweeps by priority;
        ``api_key`` is sent as ``X-Api-Key`` to the fabric master.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: ArtifactCache | str | os.PathLike | None = None,
        runner: SweepRunner | RunnerConfig | None = None,
        trace: bool = False,
        checkpoint: str | os.PathLike | None = None,
        resume: bool = False,
        inject_faults=(),
        max_tasks_per_child: int | None = _DEFAULT_RECYCLE,
        chaos: ChaosPolicy | str | None = None,
        fabric: str | None = None,
        preempt=None,
        priority: int = 0,
        api_key: str | None = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.fabric = fabric
        #: QoS: sweep-cell preemption hook (see SweepRunner.preempt),
        #: the priority stamped on fabric sweep submissions, and the
        #: API key sent as ``X-Api-Key`` to a fabric master.
        self.preempt = preempt
        self.priority = int(priority)
        self.api_key = api_key
        if cache is not None and not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        self.cache = cache
        if isinstance(chaos, str):
            try:
                chaos = parse_chaos_spec(chaos)
            except ValueError as exc:
                raise UsageError(f"bad --chaos spec: {exc}") from exc
        self.chaos = chaos
        if isinstance(runner, SweepRunner):
            self._fixed_runner: SweepRunner | None = runner
            self.runner_config = runner.config
        elif isinstance(runner, RunnerConfig) or runner is None:
            self._fixed_runner = None
            self.runner_config = runner or RunnerConfig()
        else:
            raise TypeError(f"runner must be a SweepRunner or RunnerConfig, "
                            f"not {type(runner).__name__}")
        self.trace = bool(trace)
        self.checkpoint_path = checkpoint
        self.resume = resume
        self.inject_faults = frozenset(canonical_name(n)
                                       for n in inject_faults)
        self.last_runner: SweepRunner | None = None
        self.max_tasks_per_child = max_tasks_per_child
        self._evaluators: dict[str, object] = {}
        self.trace_id: str | None = None
        if self.trace:
            from . import obs

            obs.clear()
            obs.enable()
            # One trace per session: every span/event this session's
            # work records — in this process or in sweep workers — is
            # stamped with this id and assembles into one tree.
            self.trace_id = obs.trace.new_trace()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Disable instrumentation this session enabled."""
        if self.trace:
            from . import obs

            obs.disable()

    @contextmanager
    def _activated(self):
        cache_ctx = (_activate_cache(self.cache) if self.cache is not None
                     else nullcontext())
        chaos_ctx = (_activate_chaos(self.chaos) if self.chaos is not None
                     else nullcontext())
        with cache_ctx, chaos_ctx:
            yield

    def _make_checkpoint(self) -> Checkpoint | None:
        if not self.checkpoint_path:
            return None
        return Checkpoint(self.checkpoint_path, resume=self.resume)

    def _sweep_runner(self, tasks) -> SweepRunner:
        if self._fixed_runner is not None:
            self.last_runner = self._fixed_runner
            return self._fixed_runner
        checkpoint = self._make_checkpoint()
        if tasks and (self.jobs > 1 or self.fabric):
            from .exec import ParallelSweepRunner

            executor = None
            if self.fabric:
                from .fabric import FabricExecutor

                executor = FabricExecutor(self.fabric,
                                          api_key=self.api_key,
                                          priority=self.priority)
            runner: SweepRunner = ParallelSweepRunner(
                tasks=tasks, jobs=self.jobs, cache=self.cache,
                config=self.runner_config, checkpoint=checkpoint,
                inject_failures=self.inject_faults,
                max_tasks_per_child=self.max_tasks_per_child,
                executor=executor, preempt=self.preempt)
            runner.prefetch()
        else:
            runner = SweepRunner(config=self.runner_config,
                                 checkpoint=checkpoint,
                                 inject_failures=self.inject_faults,
                                 preempt=self.preempt)
        self.last_runner = runner
        return runner

    def summary_lines(self) -> list[str]:
        """Human-readable resilience/cache summaries for the last sweep."""
        lines = []
        runner = self.last_runner
        if runner is not None:
            stats = runner.stats
            if stats["failed"] or stats["checkpoint_hits"] or stats["retries"]:
                lines.append(
                    f"resilience: {stats['ok']} ok, {stats['failed']} failed, "
                    f"{stats['retries']} retries, {stats['degraded_runs']} "
                    f"degraded, {stats['checkpoint_hits']} from checkpoint")
            if stats.get("worker_restarts") or stats.get("poisoned"):
                lines.append(
                    f"supervision: {stats['worker_restarts']} worker "
                    f"restarts, {stats['poisoned']} tasks quarantined")
        if self.cache is not None:
            summary = self.cache.summary()
            if summary:
                lines.append(summary)
        return lines

    # ------------------------------------------------------------------
    # single-design operations
    # ------------------------------------------------------------------
    def build(self, name: str) -> Design:
        """Build one design point by (alias-aware) name."""
        return resolve_recipe(name).build()

    def measure(self, name: str | Recipe, **kwargs) -> Measured:
        """Fully characterize one design point, given by (alias-aware)
        name or as a recipe; it is built only on a cache miss."""
        recipe = name if isinstance(name, Recipe) else resolve_recipe(name)
        with self._activated():
            return measure_design(recipe, **kwargs)

    def verify(self, name: str, engine: str | None = None,
               use_cache: bool | None = None) -> Measured:
        """Measure one design; raises
        :class:`~repro.core.errors.EvaluationError` on a compliance
        failure, mirroring the ``verify`` command's exit-1 contract.

        ``use_cache`` defaults to whether this session has a cache
        configured, so a warm ``verify`` benefits from the
        content-addressed store exactly like :meth:`measure`; pass
        ``use_cache=False`` to force a fresh measurement.  Only the
        default ``compiled`` engine is cached; ``engine="batch"`` or
        ``"interp"`` always simulates.
        """
        engine = resolve_engine(engine or default_engine("sim"), "sim")
        if use_cache is None:
            use_cache = self.cache is not None
        return self.measure(name, use_cache=use_cache, engine=engine)

    def profile(self, name: str) -> tuple[Design, Measured]:
        """Build and measure one design point uncached (so the profile
        covers ``frontend.build`` and every later phase)."""
        design = self.build(name)
        with self._activated():
            measured = measure_design(design, use_cache=False)
        return design, measured

    def evaluator(self, name: str):
        """The memoized hot :class:`~repro.serve.DesignEvaluator` for
        ``name`` (measured — and verified bit-exact — on first use)."""
        from .serve.evaluator import DesignEvaluator

        resolved = resolve_design(name)
        evaluator = self._evaluators.get(resolved)
        if evaluator is None:
            with self._activated():
                evaluator = DesignEvaluator(resolved, session=self)
            self._evaluators[resolved] = evaluator
        return evaluator

    def loaded_evaluators(self) -> list[str]:
        """Design names with a live evaluator in this session."""
        return sorted(self._evaluators)

    def idct(self, name: str, blocks, engine: str | None = None):
        """Evaluate 8×8 blocks through one verified design point.

        This is the *serial* path the service's batched ``/v1/idct``
        endpoint is checked bit-exact against: one simulator invocation
        per call, however many blocks the call carries.
        """
        from .serve.evaluator import validate_blocks

        engine = resolve_engine(engine or default_engine("serve"), "serve")
        evaluator = self.evaluator(name)
        with self._activated():
            return evaluator.evaluate(validate_blocks(blocks), engine=engine)

    def pool_init(self, *, obs: bool | None = None,
                  budget_s: float | None = None):
        """The picklable :class:`~repro.serve.pool.WorkerInit` a forked
        evaluator worker needs to mirror this session's substrate
        (cache directory, chaos policy, obs recording, wall budget)."""
        from .obs import trace as obs_trace
        from .serve.pool import WorkerInit

        return WorkerInit(
            cache_dir=(str(self.cache.root)
                       if self.cache is not None else None),
            chaos=self.chaos,
            obs=obs_trace.enabled() if obs is None else bool(obs),
            budget_s=budget_s)

    def serve(self, *, announce=None, **config) -> int:
        """Run the evaluation service over this session; returns the
        process exit code (0 after a clean SIGTERM drain, 3 after ^C).
        ``config`` keywords populate :class:`~repro.serve.ServeConfig`."""
        from .serve import EvalServer, ServeConfig

        with self._activated():
            server = EvalServer(self, ServeConfig(**config))
            return server.serve_forever(announce=announce)

    def faults(self, name: str, limit: int = 64, seed: int = 1, **kwargs):
        """Run the mutation campaign against the compliance verifier."""
        from .resilience.campaign import run_campaign

        design = self.build(name)
        with self._activated():
            return run_campaign(design, limit=limit, seed=seed, **kwargs)

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def table2(self, tools: list[str] | None = None):
        """Regenerate Table II under this session's policy."""
        from .eval.experiments import PAIRS, generate_table2

        if tools:
            unknown = [key for key in tools if key not in PAIRS]
            if unknown:
                close = difflib.get_close_matches(unknown[0], list(PAIRS),
                                                  n=3, cutoff=0.4)
                hint = f"; did you mean {', '.join(close)}?" if close else ""
                raise UnknownToolError(
                    f"unknown tool key {unknown[0]!r}{hint} "
                    f"(choices: {', '.join(PAIRS)})",
                    name=unknown[0], suggestions=close)
        from .obs import trace as obs_trace

        with self._activated(), obs_trace.span("sweep.table2",
                                               jobs=self.jobs):
            from .exec import table2_tasks

            tasks = (table2_tasks(tools)
                     if self.jobs > 1 or self.fabric else None)
            runner = self._sweep_runner(tasks)
            return generate_table2(tools=tools, runner=runner)

    def fig1(self, full: bool = False, *, bsc_configs: int | None = None,
             bambu_configs: int | None = None, xls_stages: int | None = None):
        """Regenerate the Figure 1 DSE sweeps under this session's policy."""
        from .eval.experiments import fig1_design_lists, generate_fig1

        defaults = (26, 42, 18) if full else (4, 6, 8)
        sizes = {
            "bsc_configs": defaults[0] if bsc_configs is None else bsc_configs,
            "bambu_configs": (defaults[1] if bambu_configs is None
                              else bambu_configs),
            "xls_stages": defaults[2] if xls_stages is None else xls_stages,
        }
        from .obs import trace as obs_trace

        with self._activated(), obs_trace.span("sweep.fig1", jobs=self.jobs,
                                               full=full):
            if (self.jobs > 1 or self.fabric) \
                    and self._fixed_runner is None:
                from .exec import fig1_tasks

                lists = fig1_design_lists(**sizes)
                runner = self._sweep_runner(fig1_tasks(lists, sizes))
                return generate_fig1(**sizes, runner=runner,
                                     design_lists=lists)
            runner = self._sweep_runner(None)
            return generate_fig1(**sizes, runner=runner)
