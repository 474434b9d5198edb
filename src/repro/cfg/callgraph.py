"""Class-hierarchy-analysis (CHA) call graph with implicit-edge support.

Explicit edges come from invoke expressions resolved against the program
class hierarchy.  *Implicit* edges — AsyncTask.execute() →
doInBackground(), Volley listener callbacks, timer/location callbacks —
are injected by :mod:`repro.semantics.async_model`, mirroring how the paper
extends FlowDroid with EdgeMiner-style callback knowledge (§3.4).
"""

from __future__ import annotations

from typing import NamedTuple

from ..ir.method import Method
from ..ir.program import Program
from ..ir.statements import Stmt, StmtRef
from ..ir.values import InvokeExpr, Local


class CallSite(NamedTuple):
    caller: str  # method_id
    ref: StmtRef
    expr: InvokeExpr


class CallGraph:
    def __init__(self, program: Program) -> None:
        self.program = program
        #: call site -> resolved target method ids
        self.targets: dict[StmtRef, set[str]] = {}
        #: method id -> call sites that may reach it
        self.callers: dict[str, set[StmtRef]] = {}
        #: method id -> ids of methods containing those call sites — the
        #: reverse-edge adjacency used by O(edges) reverse closures
        self.caller_methods: dict[str, set[str]] = {}
        #: call sites whose target is a library API (semantic-model territory)
        self.library_sites: dict[StmtRef, InvokeExpr] = {}
        #: implicit edges injected by callback models: site -> (target, reason)
        self.implicit: dict[StmtRef, set[tuple[str, str]]] = {}
        self._sites_by_method: dict[str, list[CallSite]] = {}
        self._build()

    # -- construction ----------------------------------------------------------
    def _build(self) -> None:
        for method in self.program.methods():
            if method.body is None:
                continue
            sites: list[CallSite] = []
            for stmt in method.body:
                expr = stmt.invoke
                if expr is None:
                    continue
                ref = method.stmt_ref(stmt)
                sites.append(CallSite(method.method_id, ref, expr))
                for target in self._resolve(expr):
                    self._add(ref, target.method_id)
                if ref not in self.targets:
                    self.library_sites[ref] = expr
            self._sites_by_method[method.method_id] = sites

    def _resolve(self, expr: InvokeExpr) -> list[Method]:
        program = self.program
        sig = expr.sig
        if expr.kind == "static":
            target = program.resolve_static(sig)
            return [target] if target else []
        if expr.kind == "special":
            cls = program.class_of(sig.class_name)
            if cls is None:
                return []
            target = cls.get_method(sig)
            if target is None or target.is_abstract:
                target = program.resolve_dispatch(sig.class_name, sig)
            return [target] if target else []
        # virtual / interface: CHA over the static receiver type
        receiver = sig.class_name
        if isinstance(expr.base, Local):
            receiver = expr.base.type.name
        targets: dict[str, Method] = {}
        base_target = self.program.resolve_dispatch(receiver, sig)
        if base_target is not None:
            targets[base_target.method_id] = base_target
        for sub in program.subclasses(receiver):
            sub_cls = program.class_of(sub)
            if sub_cls is None:
                continue
            m = sub_cls.get_method(sig)
            if m is not None and not m.is_abstract:
                targets[m.method_id] = m
        return list(targets.values())

    def _add(self, site: StmtRef, target_id: str) -> None:
        self.targets.setdefault(site, set()).add(target_id)
        self.callers.setdefault(target_id, set()).add(site)
        self.caller_methods.setdefault(target_id, set()).add(site.method_id)

    # -- implicit edges -----------------------------------------------------------
    def add_implicit_edge(self, site: StmtRef, target_id: str, reason: str) -> None:
        """Record a framework-mediated control transfer (e.g. AsyncTask)."""
        self._add(site, target_id)
        self.implicit.setdefault(site, set()).add((target_id, reason))
        self.library_sites.pop(site, None)

    # -- queries ---------------------------------------------------------------
    def callees_of(self, site: StmtRef) -> set[str]:
        return self.targets.get(site, set())

    def sites_in(self, method_id: str) -> list[CallSite]:
        return self._sites_by_method.get(method_id, [])

    def callers_of(self, method_id: str) -> set[StmtRef]:
        return self.callers.get(method_id, set())

    def caller_methods_of(self, method_id: str) -> set[str]:
        """Ids of methods containing a call site targeting ``method_id`` —
        an O(1) reverse-adjacency lookup (no site scan)."""
        return self.caller_methods.get(method_id, set())

    def is_library_call(self, site: StmtRef) -> bool:
        return site in self.library_sites

    def reachable_from(self, roots: list[str]) -> set[str]:
        """Method ids transitively callable from ``roots``."""
        out: set[str] = set()
        stack = list(roots)
        while stack:
            mid = stack.pop()
            if mid in out:
                continue
            out.add(mid)
            for site in self._sites_by_method.get(mid, []):
                stack.extend(self.targets.get(site.ref, ()))
        return out


def build_callgraph(program: Program) -> CallGraph:
    return CallGraph(program)


__all__ = ["CallGraph", "CallSite", "build_callgraph"]
