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
from ...rtl import Module
from ...rtl.ir import (
    Const,
    Expr,
    MemRead,
    Ref,
    Signal,
    graph,
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
    # the DAG (unique nodes, operands first) and its arrival times
    # ------------------------------------------------------------------
    dag = graph([value.expr for value in outputs.values()])
    nodes, kids = dag.nodes, dag.kids
    arrival: list[float] = []
    for i, node in enumerate(nodes):
        base = max([arrival[j] for j in kids[i]], default=0.0)
        arrival.append(base + node_cost(node, tech, allow_dsp=False).delay)
    critical = max((arrival[i] for i in dag.at), default=0.0)
    t_stage = critical / n_stages if critical > 0 else 1.0

    # Stage assignment: by arrival slice, monotone over the DAG.
    stage: list[int] = []
    for i in range(len(nodes)):
        by_time = min(n_stages - 1, int(arrival[i] / (t_stage + 1e-12)))
        stage.append(max([by_time] + [stage[j] for j in kids[i]]))

    # ------------------------------------------------------------------
    # re-materialize with boundary registers
    # ------------------------------------------------------------------
    rebuilt: list[Expr] = []            # node index -> expr at the node's stage
    chains: dict[int, list[Expr]] = {}  # node index -> delayed copies
    ff_bits = 0
    reg_index = 0

    def at_stage(i: int, want: int) -> Expr:
        """Node ``i``'s value delayed to stage ``want``."""
        nonlocal ff_bits, reg_index
        if isinstance(nodes[i], Const):
            return nodes[i]  # constants are free at every stage
        delay = want - stage[i]
        if delay == 0:
            return rebuilt[i]
        chain = chains.setdefault(i, [])
        while len(chain) < delay:
            prev = rebuilt[i] if not chain else chain[-1]
            reg = module.reg(f"p{reg_index}", prev.width, next=prev,
                             en=Ref(ce))  # type: ignore[arg-type]
            reg_index += 1
            ff_bits += prev.width
            chain.append(Ref(reg))
        return chain[delay - 1]

    for i, node in enumerate(nodes):
        if isinstance(node, (Const, Ref)):
            rebuilt.append(node)
        elif isinstance(node, MemRead):
            raise FrontendError(f"cannot pipeline node {type(node).__name__}")
        else:
            rebuilt.append(with_children(node, [at_stage(j, stage[i]) for j in kids[i]]))

    # Outputs are registered out of the final boundary: total latency is
    # exactly ``n_stages`` cycles for every path.
    for (oname, value), i in zip(outputs.items(), dag.at):
        port = module.output(oname, value.width)
        final = at_stage(i, n_stages - 1)
        out_reg = module.reg(f"oreg_{oname}", value.width, next=final,
                             en=Ref(ce))  # type: ignore[arg-type]
        ff_bits += value.width
        module.assign(port, Ref(out_reg))

    counts = [0] * n_stages
    for i, node in enumerate(nodes):
        if not isinstance(node, (Const, Ref)):
            counts[stage[i]] += 1
    return PipelineResult(
        module=module,
        n_stages=n_stages,
        latency=n_stages,
        pipeline_ff_bits=ff_bits,
        stage_node_counts=counts,
        critical_path_ns=critical,
    )
