"""BSV-like rule-based frontend (guarded atomic actions + scheduler)."""

from .designs import bsv_initial, bsv_opt
from .engine import Rule, RulesModule, Schedule, SchedulerOptions

__all__ = [
    "RulesModule",
    "Rule",
    "Schedule",
    "SchedulerOptions",
    "bsv_initial",
    "bsv_opt",
]
