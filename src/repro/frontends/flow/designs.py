"""XLS-flow design points: the combinational initial design and the sweep.

The paper synthesized 19 implementations with XLS by varying (a) the
circuit type (combinational or pipelined) and (b) the number of pipeline
stages.  ``xls_design(n)`` builds one of them: the combinational circuit
(``n = 0``) or ``n`` stages, each behind the same hand-crafted row-by-row
AXI-Stream adapter.  The registry (:mod:`repro.eval.experiments`) names
the sweep's points, stages 0..18.
"""

from __future__ import annotations

from ...axis.spec import KernelSpec, KernelStyle
from ...axis.wrapper import build_axis_wrapper
from ..base import Design, SourceArtifact, source_of, traced_build
from .kernel import COLS, IN_W, OUT_W, ROWS, idct_kernel
from .pipeline import PipelineResult, pipeline_kernel

__all__ = ["build_kernel", "xls_design", "xls_initial"]


def build_kernel(n_stages: int) -> PipelineResult:
    """The IDCT kernel scheduled into ``n_stages`` pipeline stages."""
    return pipeline_kernel(
        name=f"idct_xls_s{n_stages}",
        inputs=[("in_mat", ROWS * COLS * IN_W)],
        build=idct_kernel,
        n_stages=n_stages,
    )


def _sources(n_stages: int) -> list[SourceArtifact]:
    from ...axis import wrapper as axis_wrapper
    from . import kernel as kernel_mod

    artifacts = [
        source_of(kernel_mod._row_xform, "idct_row.x"),
        source_of(kernel_mod._col_xform, "idct_col.x"),
        source_of(kernel_mod.idct_kernel, "idct.x"),
        # Hand-crafted AXI-Stream adapter, as the paper notes for XLS.
        source_of(axis_wrapper._build_matrix_wrapper, "axis_adapter.v"),
    ]
    artifacts.append(
        SourceArtifact(
            label="xls_options.cfg",
            text=f"pipeline_stages = {n_stages}\n"
            + ("delay_model = unit\nreset = rst\n" if n_stages else "combinational = true\n"),
            kind="config",
        )
    )
    return artifacts


@traced_build("flow")
def xls_design(n_stages: int, config: str | None = None) -> Design:
    """One XLS design point with ``n_stages`` pipeline stages (0 = comb)."""
    result = build_kernel(n_stages)
    if n_stages == 0:
        spec = KernelSpec(style=KernelStyle.COMB_MATRIX, rows=ROWS, cols=COLS,
                          in_width=IN_W, out_width=OUT_W)
    else:
        spec = KernelSpec(style=KernelStyle.PIPELINED_MATRIX, rows=ROWS,
                          cols=COLS, in_width=IN_W, out_width=OUT_W,
                          latency=result.latency)
    top = build_axis_wrapper(result.module, spec,
                             name=f"xls_s{n_stages}_top")
    design = Design(
        name=f"xls-s{n_stages}",
        language="DSLX",
        tool="XLS",
        config=config or (f"stages-{n_stages}" if n_stages else "initial"),
        top=top,
        spec=spec,
        sources=_sources(n_stages),
    )
    design.meta["pipeline"] = result
    return design


def xls_initial() -> Design:
    """The paper's initial XLS design: the combinational circuit."""
    return xls_design(0, config="initial")
