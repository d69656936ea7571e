"""MaxJ-like dataflow frontend with a PCIe system manager model."""

from .designs import build_matrix_kernel, build_row_kernel, maxj_initial, maxj_opt
from .harness import run_matrix_kernel, run_row_kernel, verify_maxj
from .lang import MaxKernel, MaxVal
from .lib import transpose_8x8
from .manager import PCIE3_X16, ManagerReport, PcieLink, system_throughput

__all__ = [
    "MaxKernel",
    "MaxVal",
    "transpose_8x8",
    "PcieLink",
    "PCIE3_X16",
    "ManagerReport",
    "system_throughput",
    "maxj_initial",
    "maxj_opt",
    "build_matrix_kernel",
    "build_row_kernel",
    "run_matrix_kernel",
    "run_row_kernel",
    "verify_maxj",
]
