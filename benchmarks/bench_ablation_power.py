"""Ablation: the third DSE axis — power across the tool designs.

The paper frames design-space exploration as balancing performance, power,
and area but only measures the first two; this ablation fills in the third
with the activity-based model: each tool's optimized design processes the
same matrix stream and its estimated power split is reported, including
energy per operation (the figure of merit deep pipelines lose on).
"""

from repro.axis import StreamHarness
from repro.eval.experiments import PAIR_RECIPES
from repro.eval.verify import random_matrices
from repro.rtl import elaborate
from repro.sim import Simulator
from repro.synth import estimate_power, measure_activity, synthesize


def test_power_ablation(benchmark):
    keys = ["Verilog/Vivado", "Chisel/Chisel", "BSV/BSC", "DSLX/XLS"]

    def run():
        rows = []
        mats = random_matrices(3, seed=31)
        for key in keys:
            design = PAIR_RECIPES[key][1].build()
            netlist = elaborate(design.top)
            sim = Simulator(netlist)
            harness = StreamHarness(sim, design.spec)

            def stimulate(_sim, h=harness, m=mats):
                h.run_matrices(m)

            activity = measure_activity(sim, stimulate)
            report = synthesize(netlist, max_dsp=0)
            power = estimate_power(netlist, activity, report.fmax_mhz)
            mops = report.fmax_mhz / 8  # all four stream at T_P ~ 8-9
            rows.append((key, power, power.total_mw / mops))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{'tool':16s}{'total mW':>10s}{'logic':>8s}{'ff':>8s}"
          f"{'clock':>8s}{'static':>8s}{'mW/MOPS':>9s}")
    for key, power, per_op in rows:
        print(f"{key:16s}{power.total_mw:10.1f}{power.dynamic_logic_mw:8.1f}"
              f"{power.dynamic_ff_mw:8.1f}{power.clock_mw:8.1f}"
              f"{power.static_mw:8.1f}{per_op:9.2f}")
    by_key = {key: power for key, power, _ in rows}
    # The deep XLS pipeline must pay the highest clock power.
    assert by_key["DSLX/XLS"].clock_mw == max(p.clock_mw for p in by_key.values())
