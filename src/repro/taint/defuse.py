"""Per-method reaching definitions and def-use chains for locals.

The taint engine propagates facts through locals flow-sensitively: a use of
local ``x`` at statement ``s`` is linked to exactly the definitions of ``x``
that reach ``s``.  Field and array cells are handled globally (field-based)
by the engine itself; this module is purely intra-procedural.

The engine reads reaching definitions from the slicing table
(:class:`repro.perf.index.SliceTable`); :func:`compute_defuse` is the
fully materialised reference, computed independently by a
statement-level worklist, that the table is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.cfg import ControlFlowGraph
from ..ir.method import Method
from ..ir.statements import Stmt
from ..ir.values import Local, walk_values


@dataclass
class DefUseInfo:
    """Reaching-definition relation for one method.

    ``defs_reaching[(stmt_index, local)]`` — def statement indices of
    ``local`` that reach the *entry* of ``stmt_index``.
    ``uses_reached[(stmt_index, local)]`` — use statement indices that the
    definition of ``local`` at ``stmt_index`` reaches.
    """

    method: Method
    def_sites: dict[Local, tuple[int, ...]] = field(default_factory=dict)
    use_sites: dict[Local, tuple[int, ...]] = field(default_factory=dict)
    defs_reaching: dict[tuple[int, Local], tuple[int, ...]] = field(default_factory=dict)
    uses_reached: dict[tuple[int, Local], tuple[int, ...]] = field(default_factory=dict)

    def reaching_defs(self, stmt: Stmt, local: Local) -> tuple[int, ...]:
        return self.defs_reaching.get((stmt.index, local), ())

    def reached_uses(self, stmt: Stmt, local: Local) -> tuple[int, ...]:
        return self.uses_reached.get((stmt.index, local), ())


def _defined_local(stmt: Stmt) -> Local | None:
    for d in stmt.defs():
        if isinstance(d, Local):
            return d
    return None


def _used_locals(stmt: Stmt) -> set[Local]:
    out: set[Local] = set()
    for use in stmt.uses():
        for value in walk_values(use):
            if isinstance(value, Local):
                out.add(value)
    return out


def _sites(sites: dict[Local, list[int]]) -> dict[Local, tuple[int, ...]]:
    """Freeze per-local site lists into tuples of ints, which the cyclic
    collector stops tracking (one list per local would be promoted into the
    old generation and trigger full collections of the whole heap)."""
    return {local: tuple(idx) for local, idx in sites.items()}


def compute_defuse(method: Method) -> DefUseInfo:
    """Flow-sensitive reaching definitions via a statement-level worklist,
    fully materialised — the reference the slicing table is tested
    against."""
    info = DefUseInfo(method)
    body = method.body
    if body is None or not body.statements:
        return info
    stmts = body.statements
    n = len(stmts)
    cfg = ControlFlowGraph(method)

    def_local: list[Local | None] = [None] * n
    def_bit: list[int] = [0] * n
    def_sites: dict[Local, list[int]] = {}
    next_id = 0
    for i, stmt in enumerate(stmts):
        local = _defined_local(stmt)
        if local is not None:
            def_local[i] = local
            def_bit[i] = next_id
            def_sites.setdefault(local, []).append(i)
            next_id += 1
    kill_mask: dict[Local, int] = {
        local: sum(1 << def_bit[i] for i in sites)
        for local, sites in def_sites.items()
    }

    stmt_in = [0] * n
    stmt_out = [0] * n
    pred = cfg.stmt_pred
    succ = cfg.stmt_succ
    worklist = list(range(n - 1, -1, -1))  # pop() → statement order
    while worklist:
        i = worklist.pop()
        new_in = 0
        for p in pred.get(i, ()):
            new_in |= stmt_out[p]
        local = def_local[i]
        if local is not None:
            new_out = (new_in & ~kill_mask[local]) | (1 << def_bit[i])
        else:
            new_out = new_in
        if new_in != stmt_in[i] or new_out != stmt_out[i]:
            stmt_in[i] = new_in
            stmt_out[i] = new_out
            worklist.extend(succ.get(i, ()))
    info.def_sites = _sites(def_sites)

    # Materialise the def→use relation.
    use_sites: dict[Local, list[int]] = {}
    reached: dict[tuple[int, Local], list[int]] = {}
    for i, stmt in enumerate(stmts):
        mask = stmt_in[i]
        for local in _used_locals(stmt):
            use_sites.setdefault(local, []).append(i)
            reaching = tuple(
                d for d in info.def_sites.get(local, ())
                if (mask >> def_bit[d]) & 1
            )
            info.defs_reaching[(i, local)] = reaching
            for d_idx in reaching:
                reached.setdefault((d_idx, local), []).append(i)
    info.use_sites = _sites(use_sites)
    info.uses_reached = {key: tuple(sites) for key, sites in reached.items()}
    return info


__all__ = ["DefUseInfo", "compute_defuse"]
