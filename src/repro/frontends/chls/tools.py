"""Tool personalities: the Bambu-like and Vivado-HLS-like C flows.

Both tools share the compiler; they differ exactly where the paper says
the real tools differ:

* **BambuLike** is driven by command-line options — memory ``channels``
  (one vs two read/write ports), a memory allocation policy, optimization
  presets, and speculative scheduling.  It always inlines, never
  pipelines, and relies on a hand-written Verilog AXI adapter (whose LOC
  the paper counts separately).  ``bambu_sweep()`` generates the paper's
  42 configurations.
* **VivadoHlsLike** is driven by source pragmas.  Push-button (the
  "initial" experiment) it does *not* inline the row/column functions —
  each call boundary costs handshake cycles, the paper's 18x slowdown —
  while the optimized source adds INLINE / ARRAY_PARTITION / PIPELINE
  pragmas and an ``INTERFACE axis`` that the tool turns into the stream
  shell automatically.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, replace

from ...axis.spec import KernelSpec, KernelStyle
from ..base import Design, SourceArtifact, traced_build
from .compiler import HlsOptions, HlsResult
from .interface import build_axis_top
from .parser import parse
from .transform import inline_program

__all__ = [
    "load_source",
    "BambuConfig",
    "bambu_design",
    "bambu_sweep",
    "vivado_design",
    "bambu_initial",
    "bambu_opt",
    "vivado_initial",
    "vivado_opt",
]

ROWS, COLS, IN_W, OUT_W = 8, 8, 12, 9


def load_source(name: str) -> str:
    """Read one of the packaged C benchmark sources."""
    return (
        importlib.resources.files("repro.frontends.chls")
        .joinpath(f"sources/{name}")
        .read_text()
    )


def _spec() -> KernelSpec:
    return KernelSpec(style=KernelStyle.COMB_MATRIX, rows=ROWS, cols=COLS,
                      in_width=IN_W, out_width=OUT_W)


def _compile(source: str, options: HlsOptions, inline_all: bool,
             name: str) -> HlsResult:
    program = parse(source)
    partition = frozenset(
        pragma.settings["variable"]
        for pragma in program.functions["idct"].pragmas
        if pragma.directive == "ARRAY_PARTITION"
        and pragma.settings.get("variable"))
    options = replace(options, partition_arrays=partition)
    flat, _regions = inline_program(program, "idct", inline_all=inline_all)
    return build_axis_top(flat, options, name=name)


# ----------------------------------------------------------------------
# Bambu
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BambuConfig:
    """One Bambu command line (the knobs the paper's 42-config sweep uses)."""

    channels: str = "MEM_ACC_11"       # or MEM_ACC_NN / MEM_ACC_MP
    memory_policy: str = "LSS"         # LSS | GSS | NO_BRAM
    preset: str = "BALANCED"           # PERFORMANCE | AREA | BALANCED
    speculative_sdc: bool = False

    def to_options(self) -> HlsOptions:
        ports = 2 if self.channels == "MEM_ACC_MP" else 1
        clock = {"PERFORMANCE": 8.0, "BALANCED": 10.0, "AREA": 14.0}[self.preset]
        if self.speculative_sdc:
            clock *= 1.15  # deeper chaining per cycle
        return HlsOptions(
            clock_period_ns=clock,
            mem_read_ports=ports,
            mem_write_ports=ports,
            chaining=self.preset != "AREA",
            bram_policy=self.memory_policy,
        )

    def command_line(self) -> str:
        parts = [
            f"bambu idct.c --channels-type={self.channels}",
            f"--memory-allocation-policy={self.memory_policy}",
            f"-O{'3' if self.preset == 'PERFORMANCE' else '2'}",
        ]
        if self.speculative_sdc:
            parts.append("--speculative-sdc-scheduling")
        return " ".join(parts)


@traced_build("chls")
def bambu_design(config: BambuConfig, label: str) -> Design:
    source = load_source("idct.c")
    result = _compile(source, config.to_options(), inline_all=True,
                      name=f"bambu_{label}")
    from ...axis import wrapper as axis_wrapper
    from ..base import source_of

    design = Design(
        name=f"bambu-{label}",
        language="C",
        tool="Bambu",
        config=label,
        top=result.module,
        spec=_spec(),
        sources=[
            SourceArtifact("idct.c", source),
            SourceArtifact("bambu.cfg", config.command_line() + "\n", kind="config"),
            # Bambu cannot generate the AXI adapter; it is written by hand
            # in Verilog (counted, as the paper does).
            source_of(axis_wrapper._build_matrix_wrapper, "axis_adapter.v"),
        ],
    )
    design.meta["hls"] = result
    design.meta["bambu_config"] = config
    return design


def bambu_sweep() -> list[BambuConfig]:
    """The paper's 42 Bambu configurations."""
    configs = []
    for channels in ("MEM_ACC_11", "MEM_ACC_MP"):
        for policy in ("LSS", "GSS", "NO_BRAM"):
            for preset in ("PERFORMANCE", "BALANCED", "AREA"):
                for speculative in (False, True):
                    configs.append(BambuConfig(channels, policy, preset, speculative))
    # 36 so far; the remaining 6 vary the target clock via extra presets.
    for preset in ("PERFORMANCE", "BALANCED", "AREA"):
        configs.append(BambuConfig("MEM_ACC_11", "LSS", preset, True))
        configs.append(BambuConfig("MEM_ACC_MP", "LSS", preset, False))
    return configs[:42]


def bambu_initial() -> Design:
    """Default channels MEM_ACC_11 + LSS, as the paper's starting point."""
    return bambu_design(BambuConfig(), "initial")


def bambu_opt() -> Design:
    """BAMBU-PERFORMANCE-MP with speculative SDC scheduling (the paper's best)."""
    return bambu_design(
        BambuConfig(channels="MEM_ACC_MP", memory_policy="LSS",
                    preset="PERFORMANCE", speculative_sdc=True),
        "opt",
    )


# ----------------------------------------------------------------------
# Vivado HLS
# ----------------------------------------------------------------------

@traced_build("chls")
def vivado_design(source_name: str, label: str,
                  clock_period_ns: float = 10.0) -> Design:
    source = load_source(source_name)
    options = HlsOptions(
        clock_period_ns=clock_period_ns,
        mem_read_ports=2,
        mem_write_ports=1,  # true dual-port BRAM: 2R shared with 1W
        # ap_start/ap_done handshake cycles per non-inlined call boundary.
        # 4 per marker (8 per call) keeps push-button Vivado HLS the
        # slowest tool even though its dual-port BRAM halves load states:
        # the interface cost must exceed what the extra read port saves.
        call_overhead=4,
    )
    result = _compile(source, options, inline_all=False,
                      name=f"vivado_{label}")
    design = Design(
        name=f"vivado-hls-{label}",
        language="C",
        tool="Vivado HLS",
        config=label,
        top=result.module,
        spec=_spec(),
        sources=[SourceArtifact(source_name, source)],
    )
    design.meta["hls"] = result
    return design


def vivado_initial() -> Design:
    """Push-button compilation of the unannotated source."""
    return vivado_design("idct.c", "initial")


def vivado_opt() -> Design:
    """The pragma-annotated source (INLINE + ARRAY_PARTITION + PIPELINE)."""
    return vivado_design("idct_opt.c", "opt")
