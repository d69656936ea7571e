"""Automatic pipelining of functional kernels (the XLS scheduling model).

A flow kernel is a *pure function* from input values to output values; the
compiler owns the timing.  :func:`pipeline_kernel` traces the function into
an expression DAG, estimates per-node delays with the synthesis technology
model, slices the critical path into ``n_stages`` balanced stages, and
inserts pipeline registers on every DAG edge that crosses a stage boundary.

This reproduces the paper's XLS knob: one parameter (the number of pipeline
stages) sweeps the design space from a pure combinational circuit to a
deeply pipelined one, trading flip-flop area for clock frequency while the
sequential AXI adapter keeps the periodicity pinned at 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ...core.errors import FrontendError
from ...rtl import Module, ops
from ...rtl.ir import (
    Const,
    Expr,
    MemRead,
    Ref,
    Signal,
    expr_children,
    with_children,
)
from ...synth.cost import node_cost
from ...synth.tech import ULTRASCALE_PLUS, Tech
from ..hc.dsl import Sig

__all__ = ["PipelineResult", "pipeline_kernel"]

KernelFn = Callable[[list[Sig]], dict[str, Sig]]


@dataclass
class PipelineResult:
    """A pipelined (or combinational) kernel module plus its statistics."""

    module: Module
    n_stages: int
    latency: int
    pipeline_ff_bits: int
    stage_node_counts: list[int] = field(default_factory=list)
    critical_path_ns: float = 0.0


def _rebuild(expr: Expr, child_of: Callable[[Expr], Expr]) -> Expr:
    """Clone one node with substituted children."""
    if isinstance(expr, (Const, Ref)):
        return expr
    if isinstance(expr, MemRead):
        raise FrontendError(f"cannot pipeline node {type(expr).__name__}")
    return with_children(expr, [child_of(kid) for kid in expr_children(expr)])


def pipeline_kernel(
    name: str,
    inputs: list[tuple[str, int]],
    build: KernelFn,
    n_stages: int,
    tech: Tech = ULTRASCALE_PLUS,
) -> PipelineResult:
    """Trace ``build`` over the declared inputs and pipeline the result.

    ``n_stages == 0`` produces a purely combinational module (the XLS
    "combinational" circuit type); otherwise the module gains a ``ce``
    input and a register latency of exactly ``n_stages`` cycles.
    """
    if n_stages < 0:
        raise FrontendError("n_stages must be non-negative")
    module = Module(name)
    ce: Signal | None = None
    if n_stages > 0:
        ce = module.input("ce", 1)
    input_sigs = [Sig(Ref(module.input(pname, width)), signed=False)
                  for pname, width in inputs]
    outputs = build(input_sigs)
    if not outputs:
        raise FrontendError("kernel produced no outputs")

    # ------------------------------------------------------------------
    # combinational: just wire the outputs up
    # ------------------------------------------------------------------
    if n_stages == 0:
        for oname, value in outputs.items():
            port = module.output(oname, value.width)
            module.assign(port, value.expr)
        return PipelineResult(module=module, n_stages=0, latency=0,
                              pipeline_ff_bits=0)

    # ------------------------------------------------------------------
    # collect the DAG (unique nodes, children first)
    # ------------------------------------------------------------------
    ordered: list[Expr] = []
    seen: set[int] = set()

    def visit(node: Expr) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in expr_children(node):
            visit(child)
        ordered.append(node)

    for value in outputs.values():
        visit(value.expr)

    # Arrival times with the technology delay model.
    arrival: dict[int, float] = {}
    for node in ordered:
        base = max((arrival[id(c)] for c in expr_children(node)), default=0.0)
        arrival[id(node)] = base + node_cost(node, tech, allow_dsp=False).delay
    critical = max((arrival[id(v.expr)] for v in outputs.values()), default=0.0)
    t_stage = critical / n_stages if critical > 0 else 1.0

    # Stage assignment: by arrival slice, monotone over the DAG.
    stage: dict[int, int] = {}
    for node in ordered:
        by_time = min(n_stages - 1, int(arrival[id(node)] / (t_stage + 1e-12)))
        by_children = max((stage[id(c)] for c in expr_children(node)), default=0)
        stage[id(node)] = max(by_time, by_children)

    # ------------------------------------------------------------------
    # re-materialize with boundary registers
    # ------------------------------------------------------------------
    rebuilt: dict[int, Expr] = {}       # node id -> expr at the node's stage
    chains: dict[int, list[Expr]] = {}  # node id -> delayed copies
    ff_bits = 0
    reg_index = 0

    def at_stage(node: Expr, want: int) -> Expr:
        """The node's value delayed to stage ``want``."""
        nonlocal ff_bits, reg_index
        if isinstance(node, Const):
            return node  # constants are free at every stage
        base_stage = stage.get(id(node), 0)
        delay = want - base_stage
        if delay == 0:
            return rebuilt[id(node)]
        chain = chains.setdefault(id(node), [])
        while len(chain) < delay:
            prev = rebuilt[id(node)] if not chain else chain[-1]
            reg = module.reg(f"p{reg_index}", prev.width, next=prev,
                             en=Ref(ce))  # type: ignore[arg-type]
            reg_index += 1
            ff_bits += prev.width
            chain.append(Ref(reg))
        return chain[delay - 1]

    for node in ordered:
        if isinstance(node, (Const, Ref)):
            rebuilt[id(node)] = node
            continue
        s = stage[id(node)]
        rebuilt[id(node)] = _rebuild(node, lambda child: at_stage(child, s))

    # Outputs are registered out of the final boundary: total latency is
    # exactly ``n_stages`` cycles for every path.
    for oname, value in outputs.items():
        port = module.output(oname, value.width)
        final = at_stage(value.expr, n_stages - 1)
        out_reg = module.reg(f"oreg_{oname}", value.width, next=final,
                             en=Ref(ce))  # type: ignore[arg-type]
        ff_bits += value.width
        module.assign(port, Ref(out_reg))

    counts = [0] * n_stages
    for node in ordered:
        if not isinstance(node, (Const, Ref)):
            counts[stage[id(node)]] += 1
    return PipelineResult(
        module=module,
        n_stages=n_stages,
        latency=n_stages,
        pipeline_ff_bits=ff_bits,
        stage_node_counts=counts,
        critical_path_ns=critical,
    )
