"""Evaluation harness: metrics, measurement, and the paper's artifacts."""

from .experiments import (
    Fig1Series,
    TOOL_TABLE,
    Table2,
    ToolColumn,
    ToolEntry,
    fig1_design_lists,
    generate_fig1,
    generate_table1,
    generate_table2,
    render_fig1,
    render_table1,
    render_table2,
)
from .loc import count_loc, delta_loc, design_loc
from .measure import Measured, clear_measure_cache, measure_design
from .report import table2_markdown, write_markdown_report
from .verify import VerifyResult, random_matrices, verify_design

__all__ = [
    "count_loc",
    "design_loc",
    "delta_loc",
    "Measured",
    "measure_design",
    "clear_measure_cache",
    "VerifyResult",
    "verify_design",
    "random_matrices",
    "ToolEntry",
    "TOOL_TABLE",
    "generate_table1",
    "render_table1",
    "Table2",
    "ToolColumn",
    "generate_table2",
    "render_table2",
    "Fig1Series",
    "fig1_design_lists",
    "generate_fig1",
    "render_fig1",
    "table2_markdown",
    "write_markdown_report",
]
