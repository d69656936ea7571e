"""Ablation: netlist optimization passes across the tool designs.

Quantifies how much of each frontend's area is recoverable by generic
logic optimization (fold + simplify + CSE + DCE) before technology
mapping — i.e. how much redundancy each "language" leaves on the table.
The HLS-generated FSMs leave the most; the hand-written Verilog baseline
the least.
"""

from repro.eval.experiments import PAIR_RECIPES
from repro.rtl import elaborate, optimize
from repro.synth import synthesize


def test_optimize_ablation(benchmark):
    keys = ["Verilog/Vivado", "Chisel/Chisel", "BSV/BSC", "DSLX/XLS",
            "C/Vivado HLS"]

    def run():
        rows = []
        for key in keys:
            optimized_design = PAIR_RECIPES[key][1].build()
            netlist = elaborate(optimized_design.top)
            opt_netlist, stats = optimize(netlist)
            before = synthesize(netlist, max_dsp=0)
            after = synthesize(opt_netlist, max_dsp=0)
            rows.append((key, before.area, after.area, stats))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{'tool':16s}{'A before':>10s}{'A after':>10s}{'saved':>8s}"
          f"{'merged':>8s}{'folded':>8s}{'dead':>6s}")
    for key, before, after, stats in rows:
        saved = (before - after) / before * 100
        print(f"{key:16s}{before:10d}{after:10d}{saved:7.1f}%"
              f"{stats.merged:8d}{stats.folded:8d}"
              f"{stats.dead_assigns + stats.dead_registers:6d}")
        assert after <= before
