"""Ablation: the paper's maxdsp=0 area normalization (§III-C).

The paper measures area with DSP inference disabled so designs that map
multipliers differently stay comparable.  This ablation regenerates both
measurements for each tool's optimized design and reports the DSP count
and the LUT delta the normalization hides.
"""

from repro.eval.experiments import PAIR_RECIPES
from repro.rtl import elaborate
from repro.synth import synthesize


def test_dsp_normalization(benchmark):
    def run():
        rows = []
        for key in ("Verilog/Vivado", "Chisel/Chisel", "BSV/BSC",
                    "C/Vivado HLS"):
            optimized = PAIR_RECIPES[key][1].build()
            netlist = elaborate(optimized.top)
            with_dsp = synthesize(netlist)
            no_dsp = synthesize(netlist, max_dsp=0)
            rows.append((key, with_dsp, no_dsp))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{'tool':18s}{'N_DSP':>7s}{'N_LUT':>9s}{'N*_LUT':>9s}{'LUT delta':>11s}")
    for key, with_dsp, no_dsp in rows:
        delta = no_dsp.n_lut - with_dsp.n_lut
        print(f"{key:18s}{with_dsp.n_dsp:7d}{with_dsp.n_lut:9d}"
              f"{no_dsp.n_lut:9d}{delta:11d}")
        # DSP inference must trade DSPs for LUTs, never both ways.
        assert no_dsp.n_dsp == 0
        assert no_dsp.n_lut >= with_dsp.n_lut
        if with_dsp.n_dsp:
            assert delta > 0
