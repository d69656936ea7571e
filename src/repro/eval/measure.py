"""Measuring one design point: simulation timing + synthesis estimates.

``measure_design`` produces everything one Table II column cell needs:
functional verification against the golden model, measured latency and
periodicity, model-estimated clock and area (with and without DSP
inference), and the paper's throughput ``P = ν_max / T_P``.

MaxJ designs take the system path: ticks-per-op from the kernel shape and
throughput through the PCIe manager model, with the PCIe pin count as
N_IO (the paper's 59).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .. import cache as artifact_cache
from ..core.errors import ReproError
from ..frontends.base import Design, Recipe
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..rtl import Netlist, elaborate
from ..sim import Simulator
from ..synth import synthesize_pair
from .loc import design_loc
from .verify import verify_design

__all__ = ["Measured", "measure_design", "clear_measure_cache", "design_netlist"]


@dataclass
class Measured:
    """All per-design quantities reported in the paper's Table II."""

    name: str
    language: str
    tool: str
    config: str
    loc: int
    fmax_mhz: float
    t_clk_ns: float
    latency: int
    periodicity: int
    throughput_mops: float
    lut_star: int        # N*_LUT (maxdsp=0)
    ff_star: int         # N*_FF (maxdsp=0)
    lut: int             # N_LUT (DSP inference allowed)
    ff: int
    dsp: int
    n_io: int
    bram: int = 0
    bit_exact: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def area(self) -> int:
        """The paper's A = N*_LUT + N*_FF."""
        return self.lut_star + self.ff_star

    @property
    def quality(self) -> float:
        """Q = P / A, in the paper's OPS-per-(LUT+FF) unit."""
        return self.throughput_mops * 1e6 / self.area

    def to_dict(self) -> dict:
        """Flatten into JSON-ready primitives (exact float round-trip)."""
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        """Canonical JSON text, newline-terminated.

        This is the *one* serialization the CLI (``measure --json``) and
        the evaluation service (``POST /v1/measure``) both emit, so the
        two can be compared byte-for-byte.
        """
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Measured":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored."""
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


# Keyed like the disk artifact: (design name, config, n_matrices).  One
# name can carry two configs (Table II's ``xls-s8`` is ``opt``, Fig. 1's
# is ``stages-8``).  Only ``compiled`` measurements are kept, here and on
# disk: the engines are bit-exact, so another engine's run is worth making
# only to check that, and it must not be answered from the cache.
_CACHE: dict[tuple[str, str, int], Measured] = {}


def clear_measure_cache() -> None:
    """Drop the per-process measurement cache (e.g. before a traced run)."""
    _CACHE.clear()


def measure_design(point: Design | Recipe, n_matrices: int = 4,
                   use_cache: bool = True, engine: str = "compiled") -> Measured:
    """Fully characterize a design point (cached per process).

    ``point`` is a built :class:`Design` or a :class:`Recipe`; a recipe is
    built only when neither cache holds the measurement.  A recipe that
    fails to build raises its error with phase ``frontend.build``.

    When an artifact cache is active (:func:`repro.cache.active`) the
    result is also looked up on — and persisted to — disk, keyed by the
    design identity, the measurement parameters, and the source-tree
    code digest, so repeat sweeps (and other commands measuring the same
    design points) skip building, simulation and synthesis entirely.
    A measurement on any ``engine`` but ``compiled`` always runs and is
    never stored; it still reads and writes the netlist artifact.
    """
    use_cache = use_cache and engine == "compiled"
    memo_key = (point.name, point.config, n_matrices)
    if use_cache and memo_key in _CACHE:
        obs_trace.event("measure.cache_hit", design=point.name)
        obs_metrics.inc("measure.cache_hits")
        return _CACHE[memo_key]
    disk = artifact_cache.active() if use_cache else None
    key = None
    if disk is not None:
        key = artifact_cache.artifact_key(
            "measured", point.name, point.config, n_matrices=n_matrices)
        payload = disk.get_json("measured", key)
        if payload is not None:
            obs_trace.event("measure.disk_cache_hit", design=point.name)
            measured = Measured.from_dict(payload)
            _CACHE[memo_key] = measured
            return measured
    design = point
    if isinstance(point, Recipe):
        try:
            design = point.build()
        except ReproError as exc:
            raise exc.with_context(design=point.name, phase="frontend.build")
    with obs_trace.span("measure", design=design.name, tool=design.tool,
                        config=design.config):
        if "maxj" in design.meta:
            measured = _measure_maxj(design)
        else:
            measured = _measure_stream(design, n_matrices, engine)
        obs_metrics.inc("measure.designs")
    if use_cache:
        _CACHE[memo_key] = measured
    if disk is not None:
        disk.put_json("measured", key, measured.to_dict())
    return measured


def design_netlist(design: Design) -> Netlist:
    """The design point's one netlist: from the artifact cache or elaborated.

    Simulation and synthesis both read it, and so do the service's ``sim``
    and ``batch`` engines, so each user elaborates a point at most once.
    Ports are driven by name, so an unpickled copy serves the simulator as
    well as the freshly elaborated one.
    """
    disk = artifact_cache.active()
    key = None
    netlist = None
    if disk is not None:
        key = artifact_cache.artifact_key("netlist", design.name, design.config)
        netlist = disk.get_pickle("netlist", key)
    if netlist is None:
        netlist = elaborate(design.top)
        if disk is not None:
            disk.put_pickle("netlist", key, netlist)
    return netlist


def _measure_stream(design: Design, n_matrices: int,
                    engine: str = "compiled") -> Measured:
    netlist = design_netlist(design)
    run = verify_design(design, n_matrices=n_matrices,
                        simulator=Simulator(netlist, engine=engine))
    with_dsp, no_dsp = synthesize_pair(netlist)
    return Measured(
        name=design.name,
        language=design.language,
        tool=design.tool,
        config=design.config,
        loc=design_loc(design),
        fmax_mhz=with_dsp.fmax_mhz,
        t_clk_ns=with_dsp.t_clk_ns,
        latency=run.latency,
        periodicity=run.periodicity,
        throughput_mops=with_dsp.fmax_mhz / run.periodicity,
        lut_star=no_dsp.n_lut,
        ff_star=no_dsp.n_ff,
        lut=with_dsp.n_lut,
        ff=with_dsp.n_ff,
        dsp=with_dsp.n_dsp,
        n_io=with_dsp.n_io,
        bram=with_dsp.n_bram,
        bit_exact=run.bit_exact,
    )


def _measure_maxj(design: Design) -> Measured:
    from ..eval.verify import random_matrices
    from ..frontends.maxj import system_throughput, verify_maxj

    meta = design.meta["maxj"]
    netlist = design_netlist(design)
    bit_exact = verify_maxj(design, random_matrices(3), netlist)
    with_dsp, no_dsp = synthesize_pair(netlist)
    manager = system_throughput(
        with_dsp.fmax_mhz, meta["ticks_per_op"], meta["input_bits"], meta["link"]
    )
    return Measured(
        name=design.name,
        language=design.language,
        tool=design.tool,
        config=design.config,
        loc=design_loc(design),
        fmax_mhz=with_dsp.fmax_mhz,
        t_clk_ns=with_dsp.t_clk_ns,
        latency=meta["pipeline_depth"],
        periodicity=meta["ticks_per_op"],
        throughput_mops=manager.throughput_mops,
        lut_star=no_dsp.n_lut,
        ff_star=no_dsp.n_ff,
        lut=with_dsp.n_lut,
        ff=with_dsp.n_ff,
        dsp=with_dsp.n_dsp,
        n_io=meta["link"].pins,
        bram=with_dsp.n_bram,
        bit_exact=bit_exact,
        extra={"bound": manager.bound, "link_mops": manager.link_mops,
               "kernel_mops": manager.kernel_mops},
    )
