"""DSLX/XLS-like functional dataflow frontend with automatic pipelining."""

from .designs import build_kernel, xls_design, xls_initial
from .kernel import idct_kernel
from .pipeline import PipelineResult, pipeline_kernel

__all__ = [
    "pipeline_kernel",
    "PipelineResult",
    "idct_kernel",
    "build_kernel",
    "xls_design",
    "xls_initial",
]
