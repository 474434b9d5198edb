"""Intra-procedural control-flow graph.

The CFG is block-level (for signature building's topological traversal) and
also exposes statement-level successor/predecessor maps, which lint's
dataflow rules read and the reference computations
(:func:`repro.perf.index.compute_reach_masks`,
:func:`repro.taint.defuse.compute_defuse`) walk.  Slicing builds no CFG:
:class:`repro.perf.index.SliceTable` reads the same statement-level edges
off the body.
"""

from __future__ import annotations

from functools import cached_property

from ..ir.method import Method
from ..ir.statements import GotoStmt, IfStmt
from .blocks import BasicBlock, partition_blocks


class ControlFlowGraph:
    def __init__(self, method: Method) -> None:
        self.method = method
        self.blocks: list[BasicBlock] = partition_blocks(method)
        self.succ: dict[int, list[int]] = {b.bid: [] for b in self.blocks}
        self.pred: dict[int, list[int]] = {b.bid: [] for b in self.blocks}
        self._build_edges()

    def _build_edges(self) -> None:
        body = self.method.body
        assert body is not None
        start_to_block = {b.start: b.bid for b in self.blocks}
        for block in self.blocks:
            term = block.terminator
            targets: list[int] = []
            if isinstance(term, (IfStmt, GotoStmt)):
                for label in term.branch_targets():
                    targets.append(start_to_block[body.label_index(label)])
            if term.falls_through:
                nxt = term.index + 1
                if nxt in start_to_block:
                    targets.append(start_to_block[nxt])
            for t in targets:
                if t not in self.succ[block.bid]:
                    self.succ[block.bid].append(t)
                    self.pred[t].append(block.bid)

    # -- block-level queries -------------------------------------------------
    @property
    def entry(self) -> BasicBlock | None:
        return self.blocks[0] if self.blocks else None

    def successors(self, block: BasicBlock) -> list[BasicBlock]:
        return [self.blocks[i] for i in self.succ[block.bid]]

    def predecessors(self, block: BasicBlock) -> list[BasicBlock]:
        return [self.blocks[i] for i in self.pred[block.bid]]

    # -- statement-level adjacency ---------------------------------------------
    # Adjacency values are tuples of ints, which the cyclic collector stops
    # tracking after its first pass: a CFG has two per statement, and
    # tracked lists would be promoted into the old generation and trigger
    # full collections of the whole heap.
    @cached_property
    def stmt_succ(self) -> dict[int, tuple[int, ...]]:
        """Successor statement indices for every statement index."""
        out: dict[int, tuple[int, ...]] = {}
        for block in self.blocks:
            for si, stmt in enumerate(block.statements):
                if si + 1 < len(block.statements):
                    out[stmt.index] = (block.statements[si + 1].index,)
                else:
                    out[stmt.index] = tuple(
                        self.blocks[b].start for b in self.succ[block.bid]
                    )
        return out

    @cached_property
    def stmt_pred(self) -> dict[int, tuple[int, ...]]:
        preds: dict[int, list[int]] = {s: [] for s in self.stmt_succ}
        for src, dests in self.stmt_succ.items():
            for d in dests:
                preds[d].append(src)
        return {s: tuple(p) for s, p in preds.items()}

    def __repr__(self) -> str:
        return f"CFG({self.method.method_id}, {len(self.blocks)} blocks)"


def cfg_of(method: Method) -> ControlFlowGraph:
    """Build the CFG of ``method``.  Not memoized: a process-wide memo keyed
    by ``id(method)`` would pin every analyzed body for the life of the
    process.  :class:`~repro.perf.index.ProgramIndex` is the per-analysis
    memo."""
    return ControlFlowGraph(method)


__all__ = ["ControlFlowGraph", "cfg_of"]
