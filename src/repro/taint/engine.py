"""Bidirectional taint propagation — the FlowDroid substitute (paper §3.1).

Two directions share one engine:

* **Backward** (request slices): starting from the request object at a
  demarcation point, find every statement whose effects flow *into* it.
  Implements the paper's inverted propagation rules — a tainted LHS taints
  the RHS, callee-argument taint propagates to caller arguments, and "all
  statements that include tainted objects" join the slice (open-ended
  propagation, §3.1).
* **Forward** (response slices): starting from the response object, find
  every statement the network data flows *to* — through locals, heap
  fields, call arguments, returns and framework-linked continuations
  (AsyncTask's ``doInBackground → onPostExecute``).

Heap handling is field-based (a taint on ``C.f`` covers all instances),
which over-approximates — safe for slicing, and precision for pairing is
recovered by disjoint sub-slices exactly as in the paper (§3.3).

Asynchronous implicit flows (a callback stores into a field; a later event
reads it, §3.4) cross an *event boundary*.  The engine charges one hop per
boundary crossing and stops at ``max_async_hops`` — 1 when the paper's
heuristic is enabled, 0 when disabled; multi-hop chains are recorded in
``missed_async_flows``, reproducing the paper's stated limitation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..cfg.callgraph import CallGraph
from ..ir.method import Method
from ..ir.program import Program
from ..ir.statements import (
    AssignStmt,
    IdentityStmt,
    ReturnStmt,
    StmtRef,
)
from ..ir.values import (
    ArrayRef,
    Constant,
    FieldSig,
    InstanceFieldRef,
    InvokeExpr,
    Local,
    ParamRef,
    StaticFieldRef,
    ThisRef,
    Value,
)
from ..perf.index import ProgramIndex, field_key, read_names
from .slices import SliceResult

#: Library calls through which no data flows (logging, metrics).
NOFLOW_CALLS = frozenset(
    {
        ("android.util.Log", "d"),
        ("android.util.Log", "e"),
        ("android.util.Log", "i"),
        ("android.util.Log", "v"),
        ("android.util.Log", "w"),
        ("java.lang.System", "currentTimeMillis"),
        ("java.lang.Thread", "sleep"),
        ("java.io.PrintStream", "println"),
    }
)

#: ``NOFLOW_CALLS`` regrouped by class so the inner propagation loop checks
#: membership without building a ``(class, name)`` tuple per invoke.
_NOFLOW_BY_CLASS: dict[str, frozenset[str]] = {
    cls: frozenset(n for c, n in NOFLOW_CALLS if c == cls)
    for cls in {c for c, _ in NOFLOW_CALLS}
}


@dataclass
class TaintConfig:
    """Knobs mirroring the paper's evaluation setup (§5.1)."""

    #: async-event heuristic: 1 hop when enabled (closed-source runs),
    #: 0 hops when disabled (open-source runs).
    max_async_hops: int = 1
    #: safety valve against pathological programs
    max_worklist_items: int = 2_000_000


class TaintEngine:
    def __init__(
        self,
        program: Program,
        callgraph: CallGraph,
        config: TaintConfig | None = None,
        *,
        event_roots: dict[str, frozenset[str]] | None = None,
        linked_returns: dict[str, list[tuple[str, int]]] | None = None,
        index: ProgramIndex | None = None,
    ) -> None:
        self.program = program
        self.callgraph = callgraph
        self.config = config or TaintConfig()
        #: memoized per-method artifacts, shared with the slicer and the
        #: signature interpreter when the caller passes one; both
        #: directions read each method's def/use sites, reaching
        #: definitions, reachability and mention masks from its one
        #: :class:`~repro.perf.index.SliceTable`
        self.index = index if index is not None else ProgramIndex(program, callgraph)
        #: method id -> set of entry-point roots whose event may run it.
        self.event_roots = event_roots or {}
        #: method id -> [(continuation method id, param index receiving the
        #: return value)] — AsyncTask-style framework result plumbing.
        self.linked_returns = linked_returns or {}
        #: while a slice is being built, the live ``SliceResult.visited``
        #: set — ``_method`` is the one accessor through which the engine
        #: resolves any body, so recording there captures every method
        #: whose code could have influenced the slice (the incremental
        #: engine's reuse precondition)
        self._visited: set[str] | None = None
        self._field_stores: dict[tuple[str, str], list[StmtRef]] | None = None
        self._field_loads: dict[tuple[str, str], list[StmtRef]] | None = None

    # ------------------------------------------------------------------ utils
    def _method(self, method_id: str) -> Method:
        visited = self._visited
        if visited is not None:
            visited.add(method_id)
        return self.program.method_by_id(method_id)

    def _index_fields(self) -> None:
        if self._field_stores is None:
            self._field_stores = self.index.field_stores
            self._field_loads = self.index.field_loads

    def _cross_event_cost(self, from_mid: str, to_mid: str) -> int:
        """1 if the flow crosses an asynchronous event boundary, else 0."""
        if not self.event_roots:
            return 0
        a = self.event_roots.get(from_mid)
        b = self.event_roots.get(to_mid)
        if not a or not b:
            return 0
        return 0 if a & b else 1

    @staticmethod
    def _is_noflow(expr: InvokeExpr) -> bool:
        names = _NOFLOW_BY_CLASS.get(expr.sig.class_name)
        return names is not None and expr.sig.name in names

    # ---------------------------------------------------------------- backward
    def backward_slice(self, seeds: list[tuple[StmtRef, Value]]) -> SliceResult:
        """Request-slice extraction: inverted taint propagation from seeds."""
        self._index_fields()
        result = SliceResult("backward")
        self._visited = result.visited
        seen: dict[tuple, int] = {}
        queue: deque[tuple[StmtRef, str, int]] = deque()
        enqueued = widened = 0

        # not recursive on purpose: a closure that calls itself is a
        # reference cycle, which would keep ``seen`` and ``queue`` alive
        # until the cyclic collector runs instead of freeing them on return
        def need(ref: StmtRef, value: Value, hops: int) -> None:
            """Every local ``value`` reads is needed at statement ``ref``."""
            nonlocal enqueued, widened
            if value.__class__ is Local:
                names = (value.name,)
            elif isinstance(value, Constant):
                return
            else:
                names = read_names(value)
            for name in names:
                key = (ref.method_id, ref.index, name)
                prev = seen.get(key)
                if prev is not None and prev <= hops:
                    continue
                if prev is not None:
                    widened += 1
                seen[key] = hops
                enqueued += 1
                queue.append((ref, name, hops))

        for ref, value in seeds:
            result.stmts.setdefault(ref, None)
            need(ref, value, 0)

        budget = self.config.max_worklist_items
        while queue and budget:
            budget -= 1
            ref, name, hops = queue.popleft()
            self._backward_step(ref, name, hops, result, need)
        self._finish_visited(result)
        result.stats = {
            "worklist_iterations": self.config.max_worklist_items - budget,
            "facts_enqueued": enqueued,
            "hop_widenings": widened,
            "stmts": len(result.stmts),
            "missed_async_flows": len(result.missed_async_flows),
        }
        return result

    def _backward_step(self, ref, name, hops, result, need) -> None:
        """Taint on the local ``name`` is needed at ``ref``: add every
        statement between a reaching definition and ``ref`` that mentions
        it, and chase what flows into each."""
        method = self._method(ref.method_id)
        assert method.body is not None
        mid = method.method_id
        table = self.index.slice_table(mid)
        defined = table.defined
        defs = table.reaching_defs(ref.index, name)
        if not defs and defined[ref.index] == name:
            defs = (ref.index,)
        # the def→use region is a three-way bitmask intersection
        # (statements the def reaches ∩ statements that reach the use ∩
        # statements mentioning the local)
        use_mask = table.reach_to[ref.index] & table.mentions.get(name, 0)
        reach = table.reach
        for d_idx in defs:
            region = (reach[d_idx] & use_mask) | (1 << d_idx)
            while region:
                low = region & -region
                s_idx = low.bit_length() - 1
                region ^= low
                stmt = method.stmt_at(s_idx)
                s_ref = StmtRef(mid, s_idx)
                result.stmts.setdefault(s_ref, None if s_ref == ref else ref)
                self._backward_inflows(
                    method, stmt, s_ref, name, defined[s_idx] == name,
                    hops, result, need,
                )

    def _backward_inflows(self, method, stmt, ref, name, defines, hops, result, need) -> None:
        # 1) the statement (re)defines the tainted local: chase the RHS
        if defines and isinstance(stmt, AssignStmt):
            self._backward_rhs(method, stmt, stmt.rhs, hops, result, need)
        elif defines and isinstance(stmt, IdentityStmt):
            self._backward_identity(method, stmt, hops, result, need)
        # 2) mutation through the tainted object
        expr = stmt.invoke
        if expr is not None and _is_local(expr.base, name):
            if not self._is_noflow(expr):
                for arg in expr.args:
                    need(ref, arg, hops)
                for callee_id in self.callgraph.callees_of(ref):
                    result.call_edges.add((ref, callee_id))
        if isinstance(stmt, AssignStmt):
            tgt = stmt.target
            if isinstance(tgt, (InstanceFieldRef, ArrayRef)) and _is_local(
                tgt.base, name
            ):
                need(ref, stmt.rhs, hops)

    def _backward_rhs(self, method, stmt, rhs, hops, result, need) -> None:
        ref = method.stmt_ref(stmt)
        if isinstance(rhs, InvokeExpr):
            if self._is_noflow(rhs):
                return
            callees = self.callgraph.callees_of(ref)
            for callee_id in callees:
                result.call_edges.add((ref, callee_id))
                callee = self._method(callee_id)
                if callee.body is None:
                    continue
                for r in callee.body:
                    if isinstance(r, ReturnStmt) and r.value is not None:
                        r_ref = callee.stmt_ref(r)
                        result.stmts.setdefault(r_ref, ref)
                        need(r_ref, r.value, hops)
            if not callees or self.callgraph.is_library_call(ref):
                if rhs.base is not None:
                    need(ref, rhs.base, hops)
                for arg in rhs.args:
                    need(ref, arg, hops)
            return
        if isinstance(rhs, (InstanceFieldRef, StaticFieldRef)):
            result.fields.add(rhs.field)
            if isinstance(rhs, InstanceFieldRef):
                need(ref, rhs.base, hops)
            for store_ref in self._field_stores.get(field_key(rhs.field), ()):
                cost = self._cross_event_cost(store_ref.method_id, ref.method_id)
                if hops + cost > self.config.max_async_hops:
                    result.missed_async_flows.add(store_ref)
                    continue
                store_m = self._method(store_ref.method_id)
                store_stmt = store_m.stmt_at(store_ref.index)
                result.stmts.setdefault(store_ref, ref)
                assert isinstance(store_stmt, AssignStmt)
                need(store_ref, store_stmt.rhs, hops + cost)
                tgt = store_stmt.target
                if isinstance(tgt, InstanceFieldRef):
                    need(store_ref, tgt.base, hops + cost)
            return
        # plain values: chase every local operand
        need(ref, rhs, hops)

    def _backward_identity(self, method, stmt, hops, result, need) -> None:
        rhs = stmt.rhs
        ident_ref = method.stmt_ref(stmt)
        callers = self.callgraph.callers_of(method.method_id)
        # Crossing from a boundary callback (posted runnable, timer task)
        # back to its registration site moves to an earlier asynchronous
        # event — that is exactly the implicit flow §3.4's heuristic tracks,
        # so it costs a hop.  Same-event calls (incl. AsyncTask bodies,
        # whose roots are inherited) cost nothing.
        if isinstance(rhs, ParamRef):
            for site in callers:
                caller = self._method(site.method_id)
                expr = caller.stmt_at(site.index).invoke
                result.stmts.setdefault(site, ident_ref)
                result.call_edges.add((site, method.method_id))
                if expr is not None and rhs.index < len(expr.args):
                    cost = self._cross_event_cost(site.method_id, method.method_id)
                    if hops + cost > self.config.max_async_hops:
                        result.missed_async_flows.add(site)
                        continue
                    need(site, expr.args[rhs.index], hops + cost)
        elif isinstance(rhs, ThisRef):
            for site in callers:
                caller = self._method(site.method_id)
                expr = caller.stmt_at(site.index).invoke
                if expr is None:
                    continue
                cost = self._cross_event_cost(site.method_id, method.method_id)
                if hops + cost > self.config.max_async_hops:
                    result.missed_async_flows.add(site)
                    continue
                result.stmts.setdefault(site, ident_ref)
                result.call_edges.add((site, method.method_id))
                receiver = self._receiver_value(expr, method.class_name)
                if receiver is not None:
                    need(site, receiver, hops + cost)

    def _receiver_value(self, expr: InvokeExpr, callee_class: str):
        """The caller-side value playing ``this`` for this edge.  For
        implicit callback edges (Handler.post(runnable) → Runnable.run) the
        receiver is the *argument* of the callee's type, not the base."""
        for arg in expr.args:
            if isinstance(arg, Local) and callee_class in set(
                self.program.superclasses(arg.type.name)
            ):
                return arg
        if isinstance(expr.base, Local):
            return expr.base
        return None

    # ----------------------------------------------------------------- forward
    def forward_slice(self, seeds: list[tuple[StmtRef, Value]]) -> SliceResult:
        """Response-slice extraction: standard taint propagation from seeds."""
        self._index_fields()
        result = SliceResult("forward")
        self._visited = result.visited
        seen: dict[tuple, int] = {}
        queue: deque[tuple[StmtRef, str, int]] = deque()
        enqueued = widened = 0

        def fact(ref: StmtRef, value: Value, hops: int) -> None:
            """``value`` holds tainted data from statement ``ref`` onward."""
            nonlocal enqueued, widened
            if value.__class__ is not Local:
                return
            name = value.name
            key = (ref.method_id, ref.index, name)
            prev = seen.get(key)
            if prev is not None and prev <= hops:
                return
            if prev is not None:
                widened += 1
            seen[key] = hops
            enqueued += 1
            queue.append((ref, name, hops))

        for ref, value in seeds:
            result.stmts.setdefault(ref, None)
            fact(ref, value, 0)

        budget = self.config.max_worklist_items
        while queue and budget:
            budget -= 1
            ref, name, hops = queue.popleft()
            self._forward_step(ref, name, hops, result, fact)
        self._finish_visited(result)
        result.stats = {
            "worklist_iterations": self.config.max_worklist_items - budget,
            "facts_enqueued": enqueued,
            "hop_widenings": widened,
            "stmts": len(result.stmts),
            "missed_async_flows": len(result.missed_async_flows),
        }
        return result

    def _forward_step(self, ref, name, hops, result, fact) -> None:
        """The local ``name`` holds tainted data from ``ref`` onward: add
        every use of it reachable from ``ref``, and chase where each sends
        the data."""
        method = self._method(ref.method_id)
        assert method.body is not None
        table = self.index.slice_table(method.method_id)
        mask = table.reach[ref.index]
        for u_idx in table.use_sites.get(name, ()):
            if not (mask >> u_idx) & 1:
                continue
            stmt = method.stmt_at(u_idx)
            u_ref = StmtRef(method.method_id, u_idx)
            result.stmts.setdefault(u_ref, None if u_ref == ref else ref)
            self._forward_outflows(method, stmt, u_ref, name, hops, result, fact)

    def _forward_outflows(self, method, stmt, ref, name, hops, result, fact) -> None:
        expr = stmt.invoke
        if expr is not None and not self._is_noflow(expr):
            callees = self.callgraph.callees_of(ref)
            arg_slots = [
                i for i, arg in enumerate(expr.args) if _is_local(arg, name)
            ]
            is_base = _is_local(expr.base, name)
            for callee_id in callees:
                callee = self._method(callee_id)
                if callee.body is None:
                    continue
                cost = self._cross_event_cost(method.method_id, callee_id)
                if hops + cost > self.config.max_async_hops:
                    result.missed_async_flows.add(ref)
                    continue
                result.call_edges.add((ref, callee_id))
                for i in arg_slots:
                    if i < len(callee.param_locals):
                        p = callee.param_locals[i]
                        fact(self._param_ref(callee, p), p, hops + cost)
                if is_base and callee.this_local is not None:
                    t = callee.this_local
                    fact(self._param_ref(callee, t), t, hops + cost)
            if not callees or self.callgraph.is_library_call(ref):
                # library call: taint flows into the result and the receiver
                if isinstance(stmt, AssignStmt) and isinstance(stmt.target, Local):
                    fact(ref, stmt.target, hops)
                if arg_slots and not is_base and isinstance(expr.base, Local):
                    fact(ref, expr.base, hops)
        # an assignment whose right-hand side reads the tainted local
        # taints its target
        if isinstance(stmt, AssignStmt) and name in read_names(stmt.rhs):
            tgt = stmt.target
            if isinstance(tgt, Local):
                fact(ref, tgt, hops)
            elif isinstance(tgt, (InstanceFieldRef, StaticFieldRef)):
                result.fields.add(tgt.field)
                self._taint_field_loads(tgt.field, ref, hops, result, fact)
            elif isinstance(tgt, ArrayRef) and isinstance(tgt.base, Local):
                fact(ref, tgt.base, hops)
        if isinstance(stmt, ReturnStmt) and _is_local(stmt.value, name):
            for site in self.callgraph.callers_of(method.method_id):
                caller = self._method(site.method_id)
                call_stmt = caller.stmt_at(site.index)
                result.stmts.setdefault(site, ref)
                result.call_edges.add((site, method.method_id))
                if isinstance(call_stmt, AssignStmt) and isinstance(call_stmt.target, Local):
                    fact(site, call_stmt.target, hops)
            for succ_mid, p_idx in self.linked_returns.get(method.method_id, ()):
                succ = self._method(succ_mid)
                if succ.body is None or p_idx >= len(succ.param_locals):
                    continue
                p = succ.param_locals[p_idx]
                fact(self._param_ref(succ, p), p, hops)

    def _taint_field_loads(self, field: FieldSig, ref, hops, result, fact) -> None:
        for load_ref in self._field_loads.get(field_key(field), ()):
            cost = self._cross_event_cost(ref.method_id, load_ref.method_id)
            if hops + cost > self.config.max_async_hops:
                result.missed_async_flows.add(load_ref)
                continue
            load_m = self._method(load_ref.method_id)
            load_stmt = load_m.stmt_at(load_ref.index)
            result.stmts.setdefault(load_ref, ref)
            if isinstance(load_stmt, AssignStmt) and isinstance(load_stmt.target, Local):
                fact(load_ref, load_stmt.target, hops + cost)

    def _finish_visited(self, result: SliceResult) -> None:
        """Close out the visited set for one slice: statements and
        hop-budget-missed flows name methods the slice depends on even when
        their bodies were never resolved through ``_method`` (a missed
        store that disappears changes the ``blocked`` report column)."""
        result.visited.update(ref.method_id for ref in result.stmts)
        result.visited.update(
            ref.method_id for ref in result.missed_async_flows
        )
        self._visited = None

    def _param_ref(self, method: Method, local: Local) -> StmtRef:
        """The statement that first defines ``local`` (a parameter or
        ``this``), or the body's first statement when none does."""
        sites = self.index.slice_table(method.method_id).def_sites.get(local.name)
        return StmtRef(method.method_id, sites[0] if sites else 0)


def _is_local(value: Value | None, name: str) -> bool:
    """Whether ``value`` is the local ``name`` (names are unique within a
    body, and both sides come from one body)."""
    return value.__class__ is Local and value.name == name


__all__ = ["NOFLOW_CALLS", "TaintConfig", "TaintEngine"]
