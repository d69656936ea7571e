"""The paper's experiments: Table I, Table II, and Figure 1.

The registry maps each evaluated language/tool pair to the recipes of its
initial and optimized designs (plus each tool's configuration sweep for
the DSE figure).  A :class:`~repro.frontends.base.Recipe` names a design
point without building it, so a point whose measurement is already in
the artifact cache is never built.  Otherwise everything is regenerated
from scratch: the designs are built,
simulated against the golden model, and run through the synthesis cost
model, then the paper's derived metrics (α, Q, C_Q, F_Q) are computed
per equations (1)-(3).

Sweeps are fault-tolerant: every design point is measured through a
:class:`~repro.resilience.runner.SweepRunner`, which contains per-design
failures (budgets, retries, checkpoint/resume) so one broken configuration
renders as ``FAILED(<reason>)`` instead of aborting the table or figure.
Pass your own ``runner=`` to set budgets, inject faults, or resume from a
checkpoint; the default runner retries once, then once degraded, with no
budget limits.
"""

from __future__ import annotations

import difflib
import functools
import importlib
from dataclasses import dataclass, field
from typing import Callable

from ..core.errors import EvaluationError, ReproError, UsageError
from ..frontends.base import Design, Recipe
from ..obs import trace as obs_trace
from .loc import delta_loc
from .measure import Measured

__all__ = [
    "ToolEntry",
    "TOOL_TABLE",
    "ToolColumn",
    "generate_table1",
    "generate_table2",
    "Table2",
    "Fig1Series",
    "PAIR_RECIPES",
    "RECIPES",
    "SweepParameterError",
    "UnknownToolError",
    "table2_keys",
    "fig1_sizes",
    "fig1_design_lists",
    "generate_fig1",
    "render_table1",
    "render_table2",
    "render_fig1",
]


# ----------------------------------------------------------------------
# Table I — languages and tools under evaluation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ToolEntry:
    language: str
    paradigm: str
    tool: str
    tool_type: str   # LS/PR | HC | HLS
    openness: str


TOOL_TABLE: tuple[ToolEntry, ...] = (
    ToolEntry("Verilog", "Classical RTL", "Vivado", "LS/PR", "Commercial"),
    ToolEntry("Chisel", "Functional/RTL", "Chisel", "HC", "Open-source"),
    ToolEntry("BSV", "Rule-based/RTL", "BSC", "HC", "Open-source"),
    ToolEntry("DSLX", "Functional", "XLS", "HLS", "Open-source"),
    ToolEntry("MaxJ", "Dataflow", "MaxCompiler", "HLS", "Commercial"),
    ToolEntry("C", "Imperative", "Bambu", "HLS", "Open-source"),
    ToolEntry("C", "Imperative", "Vivado HLS", "HLS", "Commercial"),
)


def generate_table1() -> tuple[ToolEntry, ...]:
    return TOOL_TABLE


def render_table1() -> str:
    header = f"{'Language':10s} {'Paradigm':16s} {'Tool':12s} {'Type':6s} {'Openness'}"
    lines = [header, "-" * len(header)]
    for entry in TOOL_TABLE:
        lines.append(
            f"{entry.language:10s} {entry.paradigm:16s} {entry.tool:12s} "
            f"{entry.tool_type:6s} {entry.openness}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# design registry: every design point is a recipe
# ----------------------------------------------------------------------

def _build(frontend: str, factory: str, /, *args, **kwargs) -> Design:
    # Frontends are imported on first build: a sweep answered from the
    # artifact cache never loads them.
    module = importlib.import_module(f"..frontends.{frontend}", __package__)
    return getattr(module, factory)(*args, **kwargs)


def _recipe(name: str, tool: str, config: str, frontend: str, factory: str,
            /, *args, **kwargs) -> Recipe:
    return Recipe(name, tool, config,
                  functools.partial(_build, frontend, factory, *args, **kwargs))


def _bsc_point(mode: str, seed: int) -> Design:
    from ..frontends.rules import SchedulerOptions, bsv_opt

    return bsv_opt(SchedulerOptions(urgency_seed=seed, conflict_mode=mode),
                   config=f"sweep-{mode}-{seed}")


def _bambu_point(index: int) -> Design:
    from ..frontends.chls import bambu_design, bambu_sweep

    return bambu_design(bambu_sweep()[index], f"sweep{index}")


#: The paper's 26 BSC configurations (options and code attributes):
#: 13 urgency permutations x 2 conflict analyses, applied to the optimized
#: design.  The paper found the settings have "a negligible impact on the
#: performance and area", which this sweep reproduces.
_BSC_SWEEP = [(mode, seed) for mode in ("exact", "pessimistic")
              for seed in range(13)]

#: Figure 1's sweep sizes: the paper's full figure and the quick default.
#: A request may ask for 0 up to the full size of each: BSC and Bambu
#: points (42 is the length of :func:`repro.frontends.chls.bambu_sweep`),
#: and the largest XLS stage count.
_FIG1_FULL = {"bsc_configs": len(_BSC_SWEEP), "bambu_configs": 42,
              "xls_stages": 18}
_FIG1_QUICK = {"bsc_configs": 4, "bambu_configs": 6, "xls_stages": 8}

#: Table II's ``(initial, optimized)`` recipe per tool column.
PAIR_RECIPES: dict[str, tuple[Recipe, Recipe]] = {
    "Verilog/Vivado": (
        _recipe("verilog-initial", "Vivado", "initial", "vlog",
                "verilog_initial"),
        _recipe("verilog-opt", "Vivado", "opt", "vlog", "verilog_opt")),
    "Chisel/Chisel": (
        _recipe("chisel-initial", "Chisel", "initial", "hc", "chisel_initial"),
        _recipe("chisel-opt", "Chisel", "opt", "hc", "chisel_opt")),
    "BSV/BSC": (
        _recipe("bsv-initial", "BSC", "initial", "rules", "bsv_initial"),
        _recipe("bsv-opt", "BSC", "opt", "rules", "bsv_opt")),
    "DSLX/XLS": (
        _recipe("xls-s0", "XLS", "initial", "flow", "xls_initial"),
        _recipe("xls-s8", "XLS", "opt", "flow", "xls_design", 8,
                config="opt")),
    "MaxJ/MaxCompiler": (
        _recipe("maxj-initial", "MaxCompiler", "initial", "maxj",
                "maxj_initial"),
        _recipe("maxj-opt", "MaxCompiler", "opt", "maxj", "maxj_opt")),
    "C/Bambu": (
        _recipe("bambu-initial", "Bambu", "initial", "chls", "bambu_initial"),
        _recipe("bambu-opt", "Bambu", "opt", "chls", "bambu_opt")),
    "C/Vivado HLS": (
        _recipe("vivado-hls-initial", "Vivado HLS", "initial", "chls",
                "vivado_initial"),
        _recipe("vivado-hls-opt", "Vivado HLS", "opt", "chls",
                "vivado_opt")),
}

#: Every Table II design point by name: what design names resolve to.
RECIPES: dict[str, Recipe] = {recipe.name: recipe
                              for pair in PAIR_RECIPES.values()
                              for recipe in pair}


class SweepParameterError(UsageError):
    """A sweep size, ``full`` flag or tool list the registry rejects."""


class UnknownToolError(SweepParameterError):
    """No Table II column matches the requested tool key."""

    def __init__(self, message: str, *, name: str,
                 suggestions: list[str] | None = None) -> None:
        super().__init__(message, design=name, phase="api.resolve")
        self.name = name
        self.suggestions = suggestions or []


def table2_keys(tools: list[str] | None = None) -> list[str]:
    """Table II's column keys in order: the Verilog/Vivado baseline, which
    every derived metric normalizes against, then ``tools`` (every column
    when ``None`` or empty).

    Raises :class:`SweepParameterError` unless ``tools`` is a list of
    known keys, :class:`UnknownToolError` (with near misses) for a key
    that is not one.
    """
    if tools is not None and not isinstance(tools, (list, tuple)):
        raise SweepParameterError(
            f"tools must be a list of tool keys, not {tools!r}")
    for key in tools or ():
        if isinstance(key, str) and key in PAIR_RECIPES:
            continue
        close = difflib.get_close_matches(str(key), list(PAIR_RECIPES),
                                          n=3, cutoff=0.4)
        hint = f"; did you mean {', '.join(close)}?" if close else ""
        raise UnknownToolError(
            f"unknown tool key {key!r}{hint} "
            f"(choices: {', '.join(PAIR_RECIPES)})",
            name=str(key), suggestions=close)
    return list(dict.fromkeys(["Verilog/Vivado", *(tools or PAIR_RECIPES)]))


def fig1_sizes(full: bool = False, **sizes: int | None) -> dict[str, int]:
    """The checked Figure 1 sizes a request asks for.

    A size left out or ``None`` takes the full or quick default, as
    ``full`` says.  Raises :class:`SweepParameterError` unless ``full`` is
    a bool and each size an int (not a bool) from 0 to its full size.
    """
    if not isinstance(full, bool):
        raise SweepParameterError(f"full must be true or false, not {full!r}")
    checked = dict(_FIG1_FULL if full else _FIG1_QUICK)
    for name, n in sizes.items():
        if n is None:
            continue
        top = _FIG1_FULL[name]
        if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= top:
            raise SweepParameterError(
                f"{name} must be an integer from 0 to {top}, not {n!r}")
        checked[name] = n
    return checked


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------

@dataclass
class ToolColumn:
    """One tool's pair of Table II columns plus the derived metrics.

    ``initial``/``optimized`` are ``None`` when that design point failed;
    the matching ``*_error`` then holds the runner's failure record and the
    column renders as ``FAILED(<reason>)``.
    """

    key: str
    initial: Measured | None
    optimized: Measured | None
    delta_loc: int = 0
    automation_initial: float = 0.0
    automation_opt: float = 0.0
    controllability: float = 0.0
    flexibility: float = 0.0
    initial_error: dict | None = None
    optimized_error: dict | None = None

    @property
    def failed(self) -> bool:
        return self.initial is None or self.optimized is None

    @property
    def failure_reason(self) -> str:
        from ..resilience.errors import failure_reason

        for record in (self.initial_error, self.optimized_error):
            if record is not None:
                return failure_reason(record)
        return "unknown"


@dataclass
class Table2:
    columns: dict[str, ToolColumn] = field(default_factory=dict)

    def column(self, key: str) -> ToolColumn:
        return self.columns[key]


def _measure_column(key: str, runner) -> ToolColumn:
    """Build and measure one tool pair, containing any typed failure."""
    from ..resilience.errors import failure_record

    try:
        initial, optimized = (recipe.build() for recipe in PAIR_RECIPES[key])
    except ReproError as exc:
        record = failure_record(exc, design=key, phase="frontend.build")
        obs_trace.event("table2.column_failed", column=key,
                        reason=record["type"])
        return ToolColumn(key=key, initial=None, optimized=None,
                          initial_error=record, optimized_error=record)
    res_initial = runner.measure(initial)
    res_optimized = runner.measure(optimized)
    return ToolColumn(
        key=key,
        initial=res_initial.measured,
        optimized=res_optimized.measured,
        delta_loc=delta_loc(initial, optimized),
        initial_error=res_initial.error,
        optimized_error=res_optimized.error,
    )


def generate_table2(tools: list[str] | None = None, runner=None) -> Table2:
    """Measure every tool pair and compute α, C_Q, F_Q per the paper.

    Each design point runs through ``runner`` (a
    :class:`~repro.resilience.runner.SweepRunner`; a default one is built
    when omitted).  A failed point leaves its column with ``None``
    measurements and a failure record instead of raising — except the
    Verilog/Vivado baseline, which every derived metric normalizes
    against, so its failure raises :class:`EvaluationError`.
    """
    from ..resilience.runner import SweepRunner

    if runner is None:
        runner = SweepRunner()
    table = Table2()
    for key in table2_keys(tools):
        table.columns[key] = _measure_column(key, runner)
    baseline = table.columns["Verilog/Vivado"]
    if baseline.failed:
        raise EvaluationError(
            "Verilog/Vivado baseline failed; Table II cannot be normalized",
            design="Verilog/Vivado", phase="eval.table2",
            reason=baseline.failure_reason,
        )
    for column in table.columns.values():
        if column.failed:
            continue
        column.automation_initial = (
            (baseline.initial.loc - column.initial.loc) / baseline.initial.loc * 100
        )
        column.automation_opt = (
            (baseline.optimized.loc - column.optimized.loc)
            / baseline.optimized.loc * 100
        )
        column.controllability = (
            column.optimized.quality / baseline.optimized.quality * 100
        )
        if column.delta_loc:
            column.flexibility = (
                (column.optimized.quality - column.initial.quality)
                / column.delta_loc
            )
    return table


_ROWS: list[tuple[str, Callable[[ToolColumn], tuple]]] = [
    ("LOC, incl. options", lambda c: (c.initial.loc, c.optimized.loc)),
    ("Modification dL", lambda c: (c.delta_loc, "")),
    ("Automation a, %", lambda c: (round(c.automation_initial, 1),
                                   round(c.automation_opt, 1))),
    ("Quality Q=P/A", lambda c: (round(c.initial.quality), round(c.optimized.quality))),
    ("Controllability C_Q, %", lambda c: (round(c.controllability, 1), "")),
    ("Flexibility F_Q", lambda c: (round(c.flexibility, 1), "")),
    ("Frequency, MHz", lambda c: (round(c.initial.fmax_mhz, 2),
                                  round(c.optimized.fmax_mhz, 2))),
    ("Throughput, MOPS", lambda c: (round(c.initial.throughput_mops, 2),
                                    round(c.optimized.throughput_mops, 2))),
    ("Latency, cycles", lambda c: (c.initial.latency, c.optimized.latency)),
    ("Periodicity, cycles", lambda c: (c.initial.periodicity, c.optimized.periodicity)),
    ("Area N*LUT+N*FF", lambda c: (c.initial.area, c.optimized.area)),
    ("N*LUT (maxdsp=0)", lambda c: (c.initial.lut_star, c.optimized.lut_star)),
    ("N*FF (maxdsp=0)", lambda c: (c.initial.ff_star, c.optimized.ff_star)),
    ("N_LUT", lambda c: (c.initial.lut, c.optimized.lut)),
    ("N_FF", lambda c: (c.initial.ff, c.optimized.ff)),
    ("N_DSP", lambda c: (c.initial.dsp, c.optimized.dsp)),
    ("N_IO", lambda c: (c.initial.n_io, c.optimized.n_io)),
]


def render_table2(table: Table2) -> str:
    keys = list(table.columns)
    width = 17
    lines = []
    header = f"{'':24s}" + "".join(f"{k:>{2 * width}s}" for k in keys)
    lines.append(header)
    sub = f"{'':24s}" + "".join(
        f"{'Initial':>{width}s}{'Opt':>{width}s}" for _ in keys
    )
    lines.append(sub)
    lines.append("-" * len(sub))
    for label, getter in _ROWS:
        cells = []
        for key in keys:
            column = table.columns[key]
            if column.failed:
                # Keep the cell inside the column width, parenthesis closed.
                cell = f"FAILED({column.failure_reason[: width - 10]})"
                cells.append(f"{cell:>{width}s}{cell:>{width}s}")
                continue
            initial, optimized = getter(column)
            cells.append(f"{initial!s:>{width}s}{optimized!s:>{width}s}")
        lines.append(f"{label:24s}" + "".join(cells))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 1 — design space exploration in the Performance x Area plane
# ----------------------------------------------------------------------

@dataclass
class Fig1Series:
    """One tool's scatter points: (throughput MOPS, area) per design.

    ``failures`` lists ``(config, reason)`` for design points that could
    not be built or measured; the sweep continues past them.
    """

    tool: str
    points: list[tuple[str, float, int]] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)


def fig1_design_lists(
    bsc_configs: int = _FIG1_FULL["bsc_configs"],
    bambu_configs: int = _FIG1_FULL["bambu_configs"],
    xls_stages: int = _FIG1_FULL["xls_stages"],
) -> list[tuple[str, list[Recipe]]]:
    """The ordered ``(tool, recipes)`` structure behind Figure 1.

    Nothing is built here, and :func:`fig1_sizes` checks the sizes.
    This enumeration is the unit of work the sharded executor
    (:mod:`repro.exec`) distributes: every process derives the identical
    structure from the same sizes, so a ``(tool, index)`` pair addresses
    the same design point everywhere.
    """
    sizes = fig1_sizes(True, bsc_configs=bsc_configs,
                       bambu_configs=bambu_configs, xls_stages=xls_stages)
    verilog = PAIR_RECIPES["Verilog/Vivado"]
    return [
        ("Vivado", [verilog[0],
                    _recipe("verilog-opt1", "Vivado", "opt1", "vlog",
                            "verilog_opt1"),
                    verilog[1]]),
        ("Chisel", list(PAIR_RECIPES["Chisel/Chisel"])),
        ("BSC", list(PAIR_RECIPES["BSV/BSC"]) + [
            Recipe(f"bsv-opt-sweep-{mode}-{seed}", "BSC",
                   f"sweep-{mode}-{seed}",
                   functools.partial(_bsc_point, mode, seed))
            for mode, seed in _BSC_SWEEP[:sizes["bsc_configs"]]]),
        ("XLS", [_recipe(f"xls-s{n}", "XLS", f"stages-{n}" if n else "initial",
                         "flow", "xls_design", n)
                 for n in range(sizes["xls_stages"] + 1)]),
        ("MaxCompiler", list(PAIR_RECIPES["MaxJ/MaxCompiler"])),
        ("Bambu", [Recipe(f"bambu-sweep{i}", "Bambu", f"sweep{i}",
                          functools.partial(_bambu_point, i))
                   for i in range(sizes["bambu_configs"])]),
        ("Vivado HLS", list(PAIR_RECIPES["C/Vivado HLS"])),
    ]


def generate_fig1(
    bsc_configs: int = _FIG1_FULL["bsc_configs"],
    bambu_configs: int = _FIG1_FULL["bambu_configs"],
    xls_stages: int = _FIG1_FULL["xls_stages"],
    runner=None,
    design_lists: list[tuple[str, list[Recipe]]] | None = None,
) -> list[Fig1Series]:
    """All DSE sweeps of the paper's Figure 1 (sizes configurable).

    Every design point goes through ``runner``
    (:class:`~repro.resilience.runner.SweepRunner`, default-constructed
    when omitted), so a single failed configuration — one that cannot
    be built or measured — records a ``(config, reason)`` failure on its
    series instead of aborting the whole figure.  ``design_lists`` is a
    :func:`fig1_design_lists` enumeration the caller already holds.
    """
    from ..resilience.runner import SweepRunner

    if runner is None:
        runner = SweepRunner()
    if design_lists is None:
        design_lists = fig1_design_lists(bsc_configs=bsc_configs,
                                         bambu_configs=bambu_configs,
                                         xls_stages=xls_stages)
    series: list[Fig1Series] = []
    for tool, recipes in design_lists:
        entry = Fig1Series(tool=tool)
        for recipe in recipes:
            result = runner.measure(recipe)
            if result.ok:
                measured = result.measured
                entry.points.append(
                    (recipe.config, measured.throughput_mops, measured.area))
            else:
                entry.failures.append((recipe.config, result.reason))
                obs_trace.event("fig1.point_failed", tool=tool,
                                config=recipe.config, reason=result.reason)
        series.append(entry)
    return series


def render_fig1(series: list[Fig1Series]) -> str:
    """Text rendering of the DSE scatter (P in MOPS, A in LUT+FF)."""
    lines = ["Design space exploration (Performance x Area)"]
    for entry in series:
        lines.append(f"\n{entry.tool}:")
        for config, throughput, area in entry.points:
            lines.append(f"  {config:24s} P={throughput:10.3f} MOPS  A={area:7d}")
        for config, reason in entry.failures:
            lines.append(f"  {config:24s} FAILED({reason})")
    return "\n".join(lines)
