"""Regenerates the paper's Figure 1: DSE in the Performance x Area plane.

All per-tool sweeps are rebuilt: 3 Verilog architectures, 2 Chisel, the
26-configuration BSC sweep, the 19-point XLS pipeline-stage sweep, 2 MaxJ
kernels, the 42-configuration Bambu sweep, and 2 Vivado HLS points.

Set REPRO_FIG1_FULL=1 to run the complete sweeps (a few minutes); the
default trims the large sweeps so CI stays fast while keeping every
series' shape visible.
"""

import os

from repro.eval.experiments import fig1_sizes, generate_fig1, render_fig1

FULL = os.environ.get("REPRO_FIG1_FULL", "0") == "1"


def test_fig1(benchmark):
    series = benchmark.pedantic(generate_fig1, kwargs=fig1_sizes(FULL),
                                rounds=1, iterations=1)
    print("\n" + render_fig1(series))

    by_tool = {s.tool: s for s in series}
    assert len(by_tool) == 7

    # Shape assertions from the published figure.
    # 1. MaxJ sits far right/top: highest throughput of any design.
    maxj_best = max(p for _c, p, _a in by_tool["MaxCompiler"].points)
    rest_best = max(p for tool, s in by_tool.items() if tool != "MaxCompiler"
                    for _c, p, _a in s.points)
    assert maxj_best > rest_best
    # 2. The XLS trajectory grows in area monotonically with stages beyond
    #    the first register insertion.
    xls_areas = [a for _c, _p, a in by_tool["XLS"].points]
    assert xls_areas[-1] > xls_areas[1]
    # 3. The C tools cluster at the bottom (lowest throughput).
    c_best = max(p for tool in ("Bambu", "Vivado HLS")
                 for _c, p, _a in by_tool[tool].points)
    rtl_best = max(p for _c, p, _a in by_tool["Vivado"].points)
    assert c_best < rtl_best
    # 4. The BSC sweep is a tight cluster (settings change little).
    bsc_areas = [a for _c, _p, a in by_tool["BSC"].points[2:]]
    if len(bsc_areas) >= 2:
        assert max(bsc_areas) / min(bsc_areas) < 1.2
