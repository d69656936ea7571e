"""Netlist-level synthesis analysis: area accumulation and static timing.

The analyzer walks every expression in the flat netlist exactly once per
node *object* — a shared node is one physical circuit with fan-out, while
two structurally identical but distinct objects are two circuits, matching
synthesis without cross-boundary resource sharing.

DSP allocation mirrors the paper's ``maxdsp`` Vivado knob: variable
multipliers are granted DSP slices biggest-first until the budget runs out;
the rest fall back to fabric logic.  ``max_dsp=0`` reproduces the paper's
normalized-area measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.errors import SynthesisError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..rtl.elaborate import Netlist
from ..rtl.ir import Expr, Ref, Signal, expr_children
from ..rtl.module import Memory
from .cost import is_dsp_candidate, mult_dsp_count, node_cost
from .device import XCVU9P, Device
from .tech import ULTRASCALE_PLUS, Tech

__all__ = ["SynthReport", "synthesize", "synthesize_pair", "normalized_area"]


@dataclass
class SynthReport:
    """Synthesis estimate for one netlist (one ``maxdsp`` setting)."""

    name: str
    n_lut: int
    n_ff: int
    n_dsp: int
    n_bram: int
    n_io: int
    t_clk_ns: float
    critical_path: list[str] = field(default_factory=list)

    @property
    def fmax_mhz(self) -> float:
        """Maximum clock frequency implied by the critical path."""
        return 1000.0 / self.t_clk_ns

    @property
    def area(self) -> int:
        """The paper's area indicator for this run: N_LUT + N_FF."""
        return self.n_lut + self.n_ff

    def utilization(self, device: Device = XCVU9P) -> dict[str, float]:
        return device.utilization(self.n_lut, self.n_ff, self.n_dsp, min(self.n_io, device.n_io))

    def summary(self) -> str:
        return (
            f"{self.name}: {self.n_lut} LUT, {self.n_ff} FF, {self.n_dsp} DSP, "
            f"{self.n_bram} BRAM, Tclk={self.t_clk_ns:.2f}ns "
            f"(fmax={self.fmax_mhz:.2f} MHz)"
        )


def _collect_nodes(roots: list[Expr]) -> list[Expr]:
    """Unique expression nodes (by object identity), children first."""
    seen: set[int] = set()
    ordered: list[Expr] = []

    def visit(node: Expr) -> None:
        key = id(node)
        if key in seen:
            return
        seen.add(key)
        for child in expr_children(node):
            visit(child)
        ordered.append(node)

    for root in roots:
        visit(root)
    return ordered


def _memory_area(mem: Memory, tech: Tech) -> tuple[float, int]:
    """(LUTs, BRAMs) consumed by one memory block."""
    if mem.size_bits > tech.bram_threshold_bits:
        brams = max(1, math.ceil(mem.size_bits / tech.bram_bits))
        return 0.0, brams
    luts = mem.size_bits / tech.lutram_bits_per_lut
    # Write decode/enable logic per write port.
    luts += len(mem.writes) * max(1.0, mem.depth / 8)
    return luts, 0


def synthesize(
    netlist: Netlist,
    tech: Tech = ULTRASCALE_PLUS,
    device: Device = XCVU9P,
    max_dsp: int | None = None,
) -> SynthReport:
    """Estimate area and timing for ``netlist``.

    ``max_dsp`` caps DSP inference (``0`` disables it, ``None`` means the
    device limit).  Raises :class:`SynthesisError` when the design cannot
    fit the device.
    """
    with obs_trace.span("synth", netlist=netlist.name,
                        max_dsp="device" if max_dsp is None else max_dsp) as sp:
        return _synthesize_traced(netlist, tech, device, (max_dsp,), sp)[0]


def synthesize_pair(
    netlist: Netlist,
    tech: Tech = ULTRASCALE_PLUS,
    device: Device = XCVU9P,
) -> tuple[SynthReport, SynthReport]:
    """``(synthesize(netlist), synthesize(netlist, max_dsp=0))`` in one walk.

    The node collection, levelization, flip-flop and memory totals are
    shared; only DSP allocation, costing and timing run per setting.
    """
    with obs_trace.span("synth", netlist=netlist.name, max_dsp="device,0") as sp:
        with_dsp, no_dsp = _synthesize_traced(netlist, tech, device, (None, 0), sp)
    return with_dsp, no_dsp


def _synthesize_traced(netlist, tech, device, settings, sp) -> list[SynthReport]:
    with obs_trace.span("synth.map", netlist=netlist.name) as map_span:
        nodes = _collect_nodes(netlist.roots())
        fabric = [node_cost(node, tech, allow_dsp=False) for node in nodes]
        mults = [node for node in nodes if is_dsp_candidate(node, tech)]
        mults.sort(key=lambda n: (-(n.a.width * n.b.width), id(n)))
        n_ff = sum(reg.signal.width for reg in netlist.registers)
        mem_areas = [_memory_area(mem, tech) for mem in netlist.memories]
        n_bram = sum(brams for _luts, brams in mem_areas)
        mapped = [_map(nodes, fabric, mults, tech, device, max_dsp)
                  for max_dsp in settings]
        map_span.set(cells=len(nodes), dsp=mapped[0][2])

    with obs_trace.span("synth.sta", netlist=netlist.name) as sta_span:
        order = netlist.comb_order()
        timed = [_sta(netlist, order, costs, tech) for _luts, costs, _dsp in mapped]
        sta_span.set(t_clk_ns=round(timed[0][0], 3))

    reports = []
    for (luts, _costs, used_dsp), (t_clk, critical_name) in zip(mapped, timed):
        for mem_luts, _brams in mem_areas:
            luts += mem_luts
        n_lut = int(round(luts))
        report = SynthReport(
            name=netlist.name,
            n_lut=n_lut,
            n_ff=n_ff,
            n_dsp=used_dsp,
            n_bram=n_bram,
            n_io=netlist.n_io,
            t_clk_ns=t_clk,
            critical_path=[critical_name] if critical_name else [],
        )
        if not device.fits(n_lut, n_ff, used_dsp, min(report.n_io, device.n_io)):
            raise SynthesisError(
                f"{netlist.name} does not fit {device.name}: {report.summary()}"
            )
        if obs_trace.enabled():
            obs_metrics.inc("synth.runs")
            obs_metrics.inc("synth.cells_mapped", len(nodes))
            obs_metrics.inc("synth.dsp_used", used_dsp)
            obs_metrics.observe("synth.t_clk_ns", t_clk)
        reports.append(report)
    if obs_trace.enabled():
        first = reports[0]
        sp.set(n_lut=first.n_lut, n_ff=n_ff, n_dsp=first.n_dsp,
               t_clk_ns=round(first.t_clk_ns, 3))
    return reports


def _map(nodes, fabric, mults, tech, device, max_dsp) -> tuple[float, dict[int, float], int]:
    """DSP allocation and area for one ``max_dsp`` setting.

    ``fabric`` holds each node's cost without DSPs; only the multipliers
    granted a DSP are re-costed.  Returns the logic LUTs (memories
    excluded), each node's delay, and the DSP slices used.  Variable
    multipliers get DSPs biggest-first.
    """
    budget = device.n_dsp if max_dsp is None else min(max_dsp, device.n_dsp)
    dsp_mapped: set[int] = set()
    used_dsp = 0
    for node in mults:
        need = mult_dsp_count(node, tech)
        if used_dsp + need <= budget:
            dsp_mapped.add(id(node))
            used_dsp += need
    luts = 0.0
    costs: dict[int, float] = {}
    for node, cost in zip(nodes, fabric):
        if id(node) in dsp_mapped:
            cost = node_cost(node, tech, allow_dsp=True)
        luts += cost.luts
        costs[id(node)] = cost.delay
    return luts, costs, used_dsp


def _sta(netlist, order, costs, tech) -> tuple[float, str]:
    """Static timing over the DAG: ``(t_clk_ns, critical endpoint)``."""
    arrival_sig: dict[Signal, float] = {}
    for sig in netlist.inputs:
        arrival_sig[sig] = 0.0
    for reg in netlist.registers:
        arrival_sig[reg.signal] = tech.t_clk_to_q

    arrival_node: dict[int, float] = {}

    def arrival(node: Expr) -> float:
        key = id(node)
        cached = arrival_node.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Ref):
            value = arrival_sig.get(node.signal, 0.0)
        else:
            base = max((arrival(child) for child in expr_children(node)), default=0.0)
            value = base + costs[key]
        arrival_node[key] = value
        return value

    for sig, expr in order:
        arrival_sig[sig] = arrival(expr)

    critical = 0.0
    critical_name = ""
    def consider(value: float, name: str) -> None:
        nonlocal critical, critical_name
        if value > critical:
            critical = value
            critical_name = name

    for reg in netlist.registers:
        consider(arrival(reg.next) + tech.t_setup, f"reg {reg.signal.name}")
        if reg.en is not None:
            consider(arrival(reg.en) + tech.t_setup, f"reg {reg.signal.name} (en)")
    for mem in netlist.memories:
        for write in mem.writes:
            for expr in (write.en, write.addr, write.data):
                consider(arrival(expr) + tech.t_setup, f"mem {mem.name} write")
    for sig in netlist.outputs:
        consider(arrival_sig.get(sig, 0.0) + tech.t_setup, f"output {sig.name}")

    return critical * tech.routing_factor + tech.clock_overhead, critical_name


def normalized_area(
    netlist: Netlist,
    tech: Tech = ULTRASCALE_PLUS,
    device: Device = XCVU9P,
) -> int:
    """The paper's A = N*_LUT + N*_FF measured with DSP inference disabled."""
    report = synthesize(netlist, tech, device, max_dsp=0)
    return report.n_lut + report.n_ff
