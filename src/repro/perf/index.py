"""Shared, memoized per-method analysis artifacts.

:class:`ProgramIndex` computes control-flow graphs, slicing tables, loop
structure and the heap field index once per analysis: every artifact is
keyed by method id, built lazily, and shared by the taint engine (both
directions), the network slicer's object-aware augmentation and the
signature interpreter.  All artifacts are derived from immutable IR, so a
built entry is valid for the lifetime of the program object.  The index is
also the only CFG memo: artifacts live exactly as long as the analysis
that owns the index, so a long-lived process (a shard worker, ``repro
serve``) does not pin the bodies of apps it has finished.

A :class:`SliceTable` holds everything slicing reads about one method and
is built in one walk over the body; :func:`compute_reach_masks` and
:func:`repro.taint.defuse.compute_defuse` are the independent references
the tests compare it against.

The artifacts that exist per statement or per local are tuples of ints
where possible: the cyclic collector stops tracking those, while tracked
per-statement containers would be promoted into its old generation during
an analysis and trigger full collections of the whole heap.

Reachability is stored as bitmasks (one int per statement; bit ``j`` set
when statement ``j`` is reachable from statement ``i``, reflexively).
"""

from __future__ import annotations

from typing import Callable, TypeVar

from ..cfg.callgraph import CallGraph
from ..cfg.cfg import ControlFlowGraph
from ..cfg.dominators import LoopInfo, loop_info, reverse_postorder
from ..ir.method import Method
from ..ir.program import Program
from ..ir.statements import AssignStmt, Stmt, StmtRef
from ..ir.values import (
    FieldSig,
    InstanceFieldRef,
    Local,
    StaticFieldRef,
    walk_values,
)

T = TypeVar("T")

#: the one empty local set, shared by every statement that uses no local
#: (about half of them) instead of one fresh set object each
_NO_LOCALS: frozenset = frozenset()


def field_key(f: FieldSig) -> tuple[str, str]:
    """``(class, name)`` key for a heap cell (field-based heap
    abstraction)."""
    return (f.class_name, f.name)


def compute_reach_masks(cfg: ControlFlowGraph, n_statements: int) -> list[int]:
    """Forward statement-level reachability as reflexive bitmasks, by
    sweeping to a fixpoint — the reference :attr:`SliceTable.reach` is
    tested against."""
    succ = cfg.stmt_succ
    reach = [1 << i for i in range(n_statements)]
    changed = True
    while changed:
        changed = False
        for i in range(n_statements - 1, -1, -1):
            acc = reach[i]
            for s in succ.get(i, ()):
                acc |= reach[s]
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    return reach


def _close(
    order: range,
    edges: dict[int, tuple[int, ...]],
    masks: list[int],
    cyclic: bool,
) -> None:
    """OR every statement's ``edges`` neighbours' masks into its own,
    visiting statements in ``order``: one sweep when every edge runs with
    ``order``, else sweeps until nothing changes."""
    while True:
        changed = False
        for i in order:
            acc = masks[i]
            for j in edges.get(i, ()):
                acc |= masks[j]
            if acc != masks[i]:
                masks[i] = acc
                changed = True
        if not (cyclic and changed):
            return


class SliceTable:
    """Everything the taint engine and the slicer read about one method,
    built in one walk over its body.

    * per statement ``i``: ``defined[i]``, the name of the local it
      defines (or ``None``), and ``used[i]``, the names of the locals it
      reads;
    * per local name: ``def_sites`` / ``use_sites``, statement indices in
      statement order, and ``mentions``, a bitmask of the statements that
      define or use it (the candidates for backward region building);
    * per statement, as bitmasks with bit ``j`` for statement ``j``:
      ``reach[i]``, the statements reachable from ``i``, ``reach_to[j]``,
      the statements that reach ``j`` (both reflexive), and the
      definitions reaching ``i``'s entry, read through
      :meth:`reaching_defs`.

    Locals are keyed by name, which is unique within a body
    (:meth:`~repro.ir.method.Body.declare_local`): a name hashes and
    compares in C, a :class:`~repro.ir.values.Local` in Python.

    Each bitmask relation is one sweep in statement order (reverse order
    for ``reach``).  Only when the CFG has a back edge (an edge to an
    index at or below its source) does a sweep repeat until nothing
    changes: without one, every neighbour a sweep reads is already final.
    """

    __slots__ = (
        "defined", "used", "def_sites", "use_sites", "mentions",
        "reach", "reach_to", "_defs_in",
    )

    def __init__(self, stmts: list[Stmt], cfg: ControlFlowGraph | None) -> None:
        """``cfg`` is the body's CFG, or ``None`` when it has no
        statements."""
        n = len(stmts)
        defined: list[str | None] = [None] * n
        used: list[frozenset[str]] = [_NO_LOCALS] * n
        def_sites: dict[str, list[int]] = {}
        use_sites: dict[str, list[int]] = {}
        mentions: dict[str, int] = {}
        # per local, the bits of the statements defining it: its
        # reaching-definition kill set
        kill: dict[str, int] = {}
        for i, stmt in enumerate(stmts):
            bit = 1 << i
            for d in stmt.defs():
                if isinstance(d, Local):
                    name = defined[i] = d.name
                    def_sites.setdefault(name, []).append(i)
                    mentions[name] = mentions.get(name, 0) | bit
                    kill[name] = kill.get(name, 0) | bit
                    break
            reads = frozenset(
                v.name for use in stmt.uses() for v in walk_values(use)
                if isinstance(v, Local)
            )
            if reads:
                used[i] = reads
                for v in reads:
                    use_sites.setdefault(v, []).append(i)
                    mentions[v] = mentions.get(v, 0) | bit
        self.defined = defined
        self.used = used
        self.def_sites = {k: tuple(v) for k, v in def_sites.items()}
        self.use_sites = {k: tuple(v) for k, v in use_sites.items()}
        self.mentions = mentions
        self.reach = [1 << i for i in range(n)]
        self.reach_to = [1 << i for i in range(n)]
        self._defs_in = [0] * n
        if not n:
            return
        succ, pred = cfg.stmt_succ, cfg.stmt_pred
        cyclic = any(s <= i for i, dests in succ.items() for s in dests)
        _close(range(n - 1, -1, -1), succ, self.reach, cyclic)
        _close(range(n), pred, self.reach_to, cyclic)

        # reaching definitions at each statement's entry; a definition is
        # the bit of the statement making it
        defs_in = self._defs_in
        defs_out = [0] * n
        while True:
            changed = False
            for i in range(n):
                acc = 0
                for p in pred.get(i, ()):
                    acc |= defs_out[p]
                name = defined[i]
                out = acc if name is None else (acc & ~kill[name]) | (1 << i)
                if acc != defs_in[i] or out != defs_out[i]:
                    defs_in[i] = acc
                    defs_out[i] = out
                    changed = True
            if not (cyclic and changed):
                break

    def reaching_defs(self, index: int, name: str) -> tuple[int, ...]:
        """Indices of the definitions of the local ``name`` that reach the
        entry of statement ``index``, in statement order."""
        mask = self._defs_in[index]
        return tuple(
            d for d in self.def_sites.get(name, ()) if (mask >> d) & 1
        )


class ProgramIndex:
    """Per-analysis memo of per-method artifacts plus program-wide indexes.

    Per-method (lazy, built on first request):

    * :meth:`cfg_of` — the CFG
    * :meth:`slice_table` — the :class:`SliceTable` both taint directions
      and the slicer read
    * :meth:`loop_info` / :meth:`rpo` — loop structure and traversal order
      for the signature interpreter

    Program-wide (built once): :attr:`field_stores` / :attr:`field_loads`,
    the heap read/write index keyed by :func:`field_key`.
    """

    def __init__(self, program: Program, callgraph: CallGraph | None = None) -> None:
        self.program = program
        self.callgraph = callgraph
        self._cfgs: dict[str, ControlFlowGraph] = {}
        self._tables: dict[str, SliceTable] = {}
        self._loops: dict[str, LoopInfo] = {}
        self._rpo: dict[str, list[int]] = {}
        self._fields: tuple[dict, dict] | None = None

    # ------------------------------------------------------------- memo core
    def _memo(
        self, cache: dict[str, T], method: Method, build: Callable[[Method], T]
    ) -> T:
        got = cache.get(method.method_id)
        if got is None:
            got = cache[method.method_id] = build(method)
        return got

    # ------------------------------------------------------------ per-method
    def cfg_of(self, method: Method) -> ControlFlowGraph:
        return self._memo(self._cfgs, method, ControlFlowGraph)

    def slice_table(self, method_id: str) -> SliceTable:
        """The slicing table of the method ``method_id`` names (keyed by
        id: the slicer holds statement refs, not methods)."""
        table = self._tables.get(method_id)
        if table is None:
            method = self.program.method_by_id(method_id)
            stmts = method.body.statements if method.body is not None else []
            table = self._tables[method_id] = SliceTable(
                stmts, self.cfg_of(method) if stmts else None
            )
        return table

    def loop_info(self, method: Method) -> LoopInfo:
        return self._memo(self._loops, method, lambda m: loop_info(self.cfg_of(m)))

    def rpo(self, method: Method) -> list[int]:
        return self._memo(
            self._rpo, method, lambda m: reverse_postorder(self.cfg_of(m))
        )

    # ---------------------------------------------------------- program-wide
    def _build_fields(self) -> tuple[dict, dict]:
        stores: dict[tuple[str, str], list[StmtRef]] = {}
        loads: dict[tuple[str, str], list[StmtRef]] = {}
        for method in self.program.methods():
            if method.body is None:
                continue
            for stmt in method.body:
                if isinstance(stmt, AssignStmt):
                    tgt = stmt.target
                    if isinstance(tgt, (InstanceFieldRef, StaticFieldRef)):
                        stores.setdefault(field_key(tgt.field), []).append(
                            method.stmt_ref(stmt)
                        )
                    rhs = stmt.rhs
                    if isinstance(rhs, (InstanceFieldRef, StaticFieldRef)):
                        loads.setdefault(field_key(rhs.field), []).append(
                            method.stmt_ref(stmt)
                        )
        return stores, loads

    @property
    def field_stores(self) -> dict[tuple[str, str], list[StmtRef]]:
        if self._fields is None:
            self._fields = self._build_fields()
        return self._fields[0]

    @property
    def field_loads(self) -> dict[tuple[str, str], list[StmtRef]]:
        if self._fields is None:
            self.field_stores  # builds both
        return self._fields[1]


__all__ = ["ProgramIndex", "SliceTable", "compute_reach_masks", "field_key"]
