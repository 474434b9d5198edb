"""Graph substrate: basic blocks, CFGs, dominators/loops, call graph."""

from .blocks import BasicBlock, find_leaders, partition_blocks
from .callgraph import CallGraph, CallSite, build_callgraph
from .cfg import ControlFlowGraph, cfg_of
from .dominators import (
    Loop,
    LoopInfo,
    dominates,
    immediate_dominators,
    loop_info,
    natural_loops,
    reverse_postorder,
)

__all__ = [name for name in dir() if not name.startswith("_")]
