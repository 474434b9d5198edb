"""Dominator tree and natural-loop detection.

Signature building (paper §3.2) treats confluence points differently when
they are loop headers or latches: loop-variant string parts become ``rep``
terms instead of disjunctions.  This module provides the loop structure that
decision needs, via the classic Cooper-Harvey-Kennedy dominator algorithm
and back-edge natural loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfg import ControlFlowGraph


def reverse_postorder(cfg: ControlFlowGraph) -> list[int]:
    """Block ids in reverse postorder from the entry block."""
    if not cfg.blocks:
        return []
    seen: set[int] = set()
    order: list[int] = []

    def dfs(bid: int) -> None:
        # Iterative DFS to keep deep corpus methods safe from recursion limits.
        stack: list[tuple[int, int]] = [(bid, 0)]
        seen.add(bid)
        while stack:
            node, edge = stack[-1]
            succs = cfg.succ[node]
            if edge < len(succs):
                stack[-1] = (node, edge + 1)
                child = succs[edge]
                if child not in seen:
                    seen.add(child)
                    stack.append((child, 0))
            else:
                order.append(node)
                stack.pop()

    dfs(cfg.blocks[0].bid)
    order.reverse()
    return order


def immediate_dominators(cfg: ControlFlowGraph) -> dict[int, int]:
    """idom map (entry maps to itself); unreachable blocks are absent."""
    rpo = reverse_postorder(cfg)
    if not rpo:
        return {}
    index_of = {b: i for i, b in enumerate(rpo)}
    entry = rpo[0]
    idom: dict[int, int] = {entry: entry}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index_of[a] > index_of[b]:
                a = idom[a]
            while index_of[b] > index_of[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for bid in rpo[1:]:
            preds = [p for p in cfg.pred[bid] if p in idom]
            if not preds:
                continue
            new_idom = preds[0]
            for p in preds[1:]:
                new_idom = intersect(p, new_idom)
            if idom.get(bid) != new_idom:
                idom[bid] = new_idom
                changed = True
    return idom


def dominates(idom: dict[int, int], a: int, b: int) -> bool:
    """True when block ``a`` dominates block ``b``."""
    while True:
        if a == b:
            return True
        parent = idom.get(b)
        if parent is None or parent == b:
            return a == b
        b = parent


@dataclass
class Loop:
    """A natural loop: ``header`` dominated back-edge target, ``latch`` the
    back-edge source, ``body`` every block in the loop."""

    header: int
    latch: int
    body: set[int] = field(default_factory=set)


def natural_loops(cfg: ControlFlowGraph) -> list[Loop]:
    idom = immediate_dominators(cfg)
    loops: list[Loop] = []
    for src, dests in cfg.succ.items():
        if src not in idom:
            continue
        for dst in dests:
            if dst in idom and dominates(idom, dst, src):
                loop = Loop(header=dst, latch=src, body={dst})
                stack = [src]
                while stack:
                    node = stack.pop()
                    if node in loop.body:
                        continue
                    loop.body.add(node)
                    stack.extend(p for p in cfg.pred[node] if p in idom)
                loops.append(loop)
    return loops


@dataclass
class LoopInfo:
    """Pre-computed loop roles for every block of a CFG."""

    headers: set[int]
    latches: set[int]
    membership: dict[int, set[int]]  # block id -> headers of loops containing it

    def is_header(self, bid: int) -> bool:
        return bid in self.headers

    def in_loop(self, bid: int) -> bool:
        return bool(self.membership.get(bid))


def loop_info(cfg: ControlFlowGraph) -> LoopInfo:
    loops = natural_loops(cfg)
    headers = {l.header for l in loops}
    latches = {l.latch for l in loops}
    membership: dict[int, set[int]] = {}
    for loop in loops:
        for bid in loop.body:
            membership.setdefault(bid, set()).add(loop.header)
    return LoopInfo(headers, latches, membership)


__all__ = [
    "Loop",
    "LoopInfo",
    "dominates",
    "immediate_dominators",
    "loop_info",
    "natural_loops",
    "reverse_postorder",
]
