"""Basic-block partitioning of method bodies."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.method import Body, Method
from ..ir.statements import Stmt


@dataclass
class BasicBlock:
    """A maximal straight-line statement sequence.

    ``bid`` is the block's index in the CFG's block list; statements keep
    their body-wide indices, so a block is effectively a [start, end) range.
    """

    bid: int
    statements: list[Stmt] = field(default_factory=list)

    @property
    def start(self) -> int:
        return self.statements[0].index

    @property
    def end(self) -> int:
        return self.statements[-1].index

    @property
    def terminator(self) -> Stmt:
        return self.statements[-1]

    def __iter__(self):
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __repr__(self) -> str:
        return f"BB{self.bid}[{self.start}..{self.end}]"


def find_leaders(body: Body) -> set[int]:
    """Statement indices that start a basic block."""
    n = len(body.statements)
    if n == 0:
        return set()
    leaders = {0}
    for stmt in body.statements:
        targets = stmt.branch_targets()
        for label in targets:
            leaders.add(body.label_index(label))
        if targets or not stmt.falls_through:
            nxt = stmt.index + 1
            if nxt < n:
                leaders.add(nxt)
    return leaders


def partition_blocks(method: Method) -> list[BasicBlock]:
    """Split ``method``'s body into basic blocks, in statement order."""
    body = method.body
    if body is None or not body.statements:
        return []
    leaders = sorted(find_leaders(body))
    blocks: list[BasicBlock] = []
    for bi, start in enumerate(leaders):
        end = leaders[bi + 1] if bi + 1 < len(leaders) else len(body.statements)
        blocks.append(BasicBlock(bi, body.statements[start:end]))
    return blocks


__all__ = ["BasicBlock", "find_leaders", "partition_blocks"]
