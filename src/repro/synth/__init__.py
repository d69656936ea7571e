"""FPGA synthesis cost model: technology mapping, area, static timing."""

from .analyze import SynthReport, normalized_area, synthesize, synthesize_pair
from .power import PowerReport, estimate_power, measure_activity
from .cost import NodeCost, node_cost
from .device import XCVU9P, Device
from .tech import ULTRASCALE_PLUS, Tech

__all__ = [
    "SynthReport",
    "PowerReport",
    "estimate_power",
    "measure_activity",
    "synthesize",
    "synthesize_pair",
    "normalized_area",
    "NodeCost",
    "node_cost",
    "Device",
    "XCVU9P",
    "Tech",
    "ULTRASCALE_PLUS",
]
