"""Shared, memoized per-method analysis artifacts.

:class:`ProgramIndex` computes control-flow graphs, def-use chains,
reachability sets and the heap field index once per analysis: every
artifact is keyed by method id, built lazily, and shared by the taint
engine (both directions), the network slicer's object-aware augmentation
and the signature interpreter.  All artifacts are derived from immutable
IR, so a built entry is valid for the lifetime of the program object.  The
index is also the only CFG memo: artifacts live exactly as long as the
analysis that owns the index, so a long-lived process (a shard worker,
``repro serve``) does not pin the bodies of apps it has finished.

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
from ..ir.statements import AssignStmt, StmtRef
from ..ir.values import (
    FieldSig,
    InstanceFieldRef,
    Local,
    StaticFieldRef,
    walk_values,
)
from ..taint.defuse import LazyDefUse

T = TypeVar("T")

#: the one empty local set, shared by every statement that defines or uses
#: no local (about half of them) instead of one fresh set object each
_NO_LOCALS: frozenset = frozenset()

_FIELD_KEYS: dict[FieldSig, tuple[str, str]] = {}


def field_key(f: FieldSig) -> tuple[str, str]:
    """Memoized ``(class, name)`` key for a heap cell (field-based heap
    abstraction) — avoids re-building the tuple in inner propagation loops."""
    key = _FIELD_KEYS.get(f)
    if key is None:
        key = (f.class_name, f.name)
        _FIELD_KEYS[f] = key
    return key


def compute_reach_masks(cfg: ControlFlowGraph, n_statements: int) -> list[int]:
    """Forward statement-level reachability as reflexive bitmasks."""
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


class ProgramIndex:
    """Per-analysis memo of per-method artifacts plus program-wide indexes.

    Per-method (lazy, built on first request):

    * :meth:`cfg_of` / :meth:`defuse_of` — the CFG and def-use chains
    * :meth:`reach_masks` — statement reachability bitmasks
    * :meth:`mention_sites` — statement indices mentioning each local
      (definition or use), the candidate set for backward region building
    * :meth:`stmt_locals` — per-statement defined and used local sets
    * :meth:`loop_info` / :meth:`rpo` — loop structure and traversal order
      for the signature interpreter

    Program-wide (built once): :attr:`field_stores` / :attr:`field_loads`,
    the heap read/write index keyed by :func:`field_key`.
    """

    def __init__(self, program: Program, callgraph: CallGraph | None = None) -> None:
        self.program = program
        self.callgraph = callgraph
        self._cfgs: dict[str, ControlFlowGraph] = {}
        self._defuse: dict[str, LazyDefUse] = {}
        self._reach: dict[str, list[int]] = {}
        self._reach_to: dict[str, list[int]] = {}
        self._mentions: dict[str, dict[Local, tuple[int, ...]]] = {}
        self._mention_masks: dict[str, dict[Local, int]] = {}
        self._stmt_locals: dict[str, tuple[list[frozenset], list[frozenset]]] = {}
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

    def defuse_of(self, method: Method) -> LazyDefUse:
        def build(m: Method) -> LazyDefUse:
            # reuse the per-statement used-local sets instead of re-walking
            # every value tree, and materialise reaching-defs lazily — taint
            # facts only query a subset of (statement, local) pairs
            uses = self.stmt_locals(m)[1]
            return LazyDefUse(m, uses, self.cfg_of(m) if uses else None)

        return self._memo(self._defuse, method, build)

    def reach_masks(self, method: Method) -> list[int]:
        def build(m: Method) -> list[int]:
            n = len(m.body.statements) if m.body else 0
            return compute_reach_masks(self.cfg_of(m), n)

        return self._memo(self._reach, method, build)

    def reach_to_masks(self, method: Method) -> list[int]:
        """Transpose of :meth:`reach_masks`: ``to[j]`` has bit ``i`` set
        when statement ``i`` reaches statement ``j`` (reflexively).  One AND
        with this column selects "statements that reach the use" without a
        per-statement bit probe."""

        def build(m: Method) -> list[int]:
            # same fixpoint as compute_reach_masks on the reversed edges —
            # O(statements) big-int ops per pass instead of iterating every
            # set bit of the forward relation
            n = len(m.body.statements) if m.body else 0
            pred = self.cfg_of(m).stmt_pred
            to = [1 << i for i in range(n)]
            changed = True
            while changed:
                changed = False
                for i in range(n):
                    acc = to[i]
                    for p in pred.get(i, ()):
                        acc |= to[p]
                    if acc != to[i]:
                        to[i] = acc
                        changed = True
            return to

        return self._memo(self._reach_to, method, build)

    def mention_masks(self, method: Method) -> dict[Local, int]:
        """Bitmask form of :meth:`mention_sites` (bit per statement)."""

        def build(m: Method) -> dict[Local, int]:
            return {
                local: sum(1 << s for s in sites)
                for local, sites in self.mention_sites(m).items()
            }

        return self._memo(self._mention_masks, method, build)

    def mention_sites(self, method: Method) -> dict[Local, tuple[int, ...]]:
        def build(m: Method) -> dict[Local, tuple[int, ...]]:
            out: dict[Local, list[int]] = {}
            defs_at, uses_at = self.stmt_locals(m)
            for idx, (defs, uses) in enumerate(zip(defs_at, uses_at)):
                for local in defs | uses:
                    out.setdefault(local, []).append(idx)
            return {local: tuple(sites) for local, sites in out.items()}

        return self._memo(self._mentions, method, build)

    def stmt_locals(
        self, method: Method
    ) -> tuple[list[frozenset], list[frozenset]]:
        """(locals defined, locals used), each a list indexed by statement.
        Two lists rather than a pair per statement: a per-statement tuple of
        sets stays tracked by the cyclic collector."""

        def build(m: Method) -> tuple[list[frozenset], list[frozenset]]:
            defs_at: list[frozenset] = []
            uses_at: list[frozenset] = []
            if m.body is None:
                return defs_at, uses_at
            for stmt in m.body:
                defs_at.append(frozenset(
                    d for d in stmt.defs() if isinstance(d, Local)
                ) or _NO_LOCALS)
                uses_at.append(frozenset(
                    v
                    for use in stmt.uses()
                    for v in walk_values(use)
                    if isinstance(v, Local)
                ) or _NO_LOCALS)
            return defs_at, uses_at

        return self._memo(self._stmt_locals, method, build)

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

    # -------------------------------------------------------------- warm-up
    def warm(self, method_ids: set[str] | None = None) -> int:
        """Eagerly build artifacts (field index always; per-method artifacts
        for ``method_ids``, or every method with a body when None).

        Targeted mode passes its demand-driven region here — the memos
        stay lazy for everything else, so a method outside the region
        still materializes correctly if the engine reaches it.  Returns
        the number of methods warmed.
        """
        self.field_stores
        if method_ids is None:
            methods = [m for m in self.program.methods() if m.body is not None]
        else:
            methods = []
            for mid in method_ids:
                try:
                    m = self.program.method_by_id(mid)
                except KeyError:
                    continue
                if m.body is not None:
                    methods.append(m)
        for m in methods:
            self.reach_masks(m)
            self.defuse_of(m)
            self.mention_sites(m)
        return len(methods)

    def invalidate(self, method_ids: set[str]) -> None:
        """Drop the per-method memos of ``method_ids`` (plus the
        program-wide heap index, which any of them may contribute to).

        The fingerprint-aware reuse hook: a session re-analyzing a
        mutated program keeps one index alive and evicts exactly the
        methods whose fingerprints changed instead of rebuilding from
        scratch.
        """
        for mid in method_ids:
            for memo in (
                self._cfgs,
                self._defuse,
                self._reach,
                self._reach_to,
                self._mentions,
                self._mention_masks,
                self._stmt_locals,
                self._loops,
                self._rpo,
            ):
                memo.pop(mid, None)
        self._fields = None


__all__ = ["ProgramIndex", "compute_reach_masks", "field_key"]
