"""Shared, memoized per-method analysis artifacts.

:class:`ProgramIndex` computes slicing tables, control-flow graphs, loop
structure and the heap field index once per analysis: every artifact is
keyed by method id, built lazily, and shared by the taint engine (both
directions), the network slicer's object-aware augmentation and the
signature interpreter.  All artifacts are derived from immutable IR, so a
built entry is valid for the lifetime of the program object.  The index is
also the only CFG memo: artifacts live exactly as long as the analysis
that owns the index, so a long-lived process (a shard worker, ``repro
serve``) does not pin the bodies of apps it has finished.

A :class:`SliceTable` holds everything slicing reads about one method and
is built in one walk over the body, without a CFG (the CFGs serve the
signature interpreter); :func:`compute_reach_masks` and
:func:`repro.taint.defuse.compute_defuse`, both over the CFG's
statement-level edges, are the independent references the tests compare
it against.

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
from ..ir.method import Body, Method
from ..ir.program import Program
from ..ir.statements import (
    AssignStmt,
    IdentityStmt,
    InvokeStmt,
    ReturnStmt,
    StmtRef,
)
from ..ir.values import (
    Constant,
    FieldSig,
    InstanceFieldRef,
    Local,
    StaticFieldRef,
    Value,
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


def _read_names(value: Value, out: list[str]) -> None:
    """Append to ``out`` the names of the locals ``value`` reads: the value
    itself when it is a local, else its operands, in
    :func:`~repro.ir.values.walk_values` order.  Expressions are flat, so
    this is one loop over an expression's operands, with no generator per
    operand; a nested operand would still be walked."""
    if value.__class__ is Local:
        out.append(value.name)
        return
    for op in value.operands():
        if op.__class__ is Local:
            out.append(op.name)
        elif not isinstance(op, Constant):
            _read_names(op, out)


def read_names(value: Value) -> list[str]:
    """The names of the locals ``value`` reads, in
    :func:`~repro.ir.values.walk_values` order."""
    out: list[str] = []
    _read_names(value, out)
    return out


def _close_pull(
    succ: list[tuple[int, ...]], masks: list[int], cyclic: bool
) -> None:
    """OR every statement's successors' masks into its own, sweeping in
    reverse statement order: one sweep when every edge runs forward, else
    sweeps until nothing changes."""
    order = range(len(masks) - 1, -1, -1)
    while True:
        changed = False
        for i in order:
            acc = masks[i]
            for j in succ[i]:
                acc |= masks[j]
            if acc != masks[i]:
                masks[i] = acc
                changed = True
        if not (cyclic and changed):
            return


def _close_push(
    succ: list[tuple[int, ...]], masks: list[int], cyclic: bool
) -> None:
    """OR every statement's mask into its successors' masks, sweeping in
    statement order: one sweep when every edge runs forward (a statement's
    mask is final once its predecessors have pushed), else sweeps until
    nothing changes."""
    order = range(len(masks))
    while True:
        changed = False
        for i in order:
            mask = masks[i]
            for j in succ[i]:
                acc = masks[j] | mask
                if acc != masks[j]:
                    masks[j] = acc
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

    The walk reads each statement by its kind: the local an assignment
    or identity statement defines, the locals its operands read, and its
    successors, which are a branch's target (through ``Body.labels``) and
    then the next statement when control falls through, each once.  Those
    are :attr:`~repro.cfg.cfg.ControlFlowGraph.stmt_succ`'s edges without
    the basic blocks: slicing builds no CFG.

    Each bitmask relation is one sweep over the successor edges, in
    reverse statement order for ``reach`` and in statement order for
    ``reach_to`` and the reaching definitions.  Only when the body has a
    back edge (an edge to an index at or below its source) does a sweep
    repeat until nothing changes: without one, every mask a sweep reads
    is already final.
    """

    __slots__ = (
        "defined", "used", "def_sites", "use_sites", "mentions",
        "reach", "reach_to", "_defs_in",
    )

    def __init__(self, body: Body | None) -> None:
        stmts = body.statements if body is not None else []
        n = len(stmts)
        defined: list[str | None] = [None] * n
        used: list[frozenset[str]] = [_NO_LOCALS] * n
        succ: list[tuple[int, ...]] = [()] * n
        def_sites: dict[str, list[int]] = {}
        use_sites: dict[str, list[int]] = {}
        mentions: dict[str, int] = {}
        # per local, the bits of the statements defining it: its
        # reaching-definition kill set
        kill: dict[str, int] = {}
        cyclic = False
        for i, stmt in enumerate(stmts):
            reads: list[str] = []
            name = None
            kind = stmt.__class__
            if kind is AssignStmt:
                target = stmt.target
                _read_names(stmt.rhs, reads)
                if target.__class__ is Local:
                    name = target.name
                else:
                    # a field or array store reads its base (and index)
                    _read_names(target, reads)
                edges = (i + 1,)
            elif kind is InvokeStmt:
                _read_names(stmt.expr, reads)
                edges = (i + 1,)
            elif kind is IdentityStmt:
                target = stmt.target
                if target.__class__ is Local:
                    name = target.name
                _read_names(stmt.rhs, reads)
                edges = (i + 1,)
            elif kind is ReturnStmt:
                if stmt.value is not None:
                    _read_names(stmt.value, reads)
                edges = ()
            else:
                name = next(
                    (d.name for d in stmt.defs() if isinstance(d, Local)), None
                )
                for use in stmt.uses():
                    _read_names(use, reads)
                dests = [body.label_index(t) for t in stmt.branch_targets()]
                if stmt.falls_through:
                    dests.append(i + 1)
                edges = tuple(dict.fromkeys(dests))
                if any(s <= i for s in edges):
                    cyclic = True
            if edges:
                if edges[-1] == n:
                    # control falls off the end of an unsealed body
                    edges = edges[:-1]
                succ[i] = edges
            if name is not None:
                bit = 1 << i
                defined[i] = name
                def_sites.setdefault(name, []).append(i)
                mentions[name] = mentions.get(name, 0) | bit
                kill[name] = kill.get(name, 0) | bit
            if reads:
                bit = 1 << i
                used[i] = reads = frozenset(reads)
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
        _close_pull(succ, self.reach, cyclic)
        _close_push(succ, self.reach_to, cyclic)

        # reaching definitions at each statement's entry, pushed along the
        # successor edges; a definition is the bit of the statement making it
        defs_in = self._defs_in = [0] * n
        while True:
            changed = False
            for i in range(n):
                name = defined[i]
                out = defs_in[i]
                if name is not None:
                    out = (out & ~kill[name]) | (1 << i)
                for j in succ[i]:
                    acc = defs_in[j] | out
                    if acc != defs_in[j]:
                        defs_in[j] = acc
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

    * :meth:`slice_table` — the :class:`SliceTable` both taint directions
      and the slicer read
    * :meth:`cfg_of` — the CFG, and :meth:`loop_info` / :meth:`rpo` — loop
      structure and traversal order, for the signature interpreter

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
            table = self._tables[method_id] = SliceTable(
                self.program.method_by_id(method_id).body
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


__all__ = [
    "ProgramIndex",
    "SliceTable",
    "compute_reach_masks",
    "field_key",
    "read_names",
]
