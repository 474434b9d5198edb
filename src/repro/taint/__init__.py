"""Bidirectional static taint analysis (the FlowDroid substitute)."""

from .defuse import DefUseInfo, compute_defuse
from .engine import NOFLOW_CALLS, TaintConfig, TaintEngine
from .slices import SliceResult

__all__ = [
    "DefUseInfo",
    "NOFLOW_CALLS",
    "SliceResult",
    "TaintConfig",
    "TaintEngine",
    "compute_defuse",
]
