"""Inter-procedural CFG: per-method CFGs stitched by the call graph."""

from __future__ import annotations

from ..ir.method import Method
from ..ir.program import Program
from ..ir.statements import Stmt, StmtRef
from .callgraph import CallGraph, build_callgraph
from .cfg import ControlFlowGraph, cfg_of


class ICFG:
    """Navigation helper over (Program, CallGraph, per-method CFGs)."""

    def __init__(self, program: Program, callgraph: CallGraph | None = None) -> None:
        self.program = program
        self.callgraph = callgraph if callgraph is not None else build_callgraph(program)
        self._cfgs: dict[str, ControlFlowGraph] = {}

    def cfg(self, method: Method | str) -> ControlFlowGraph:
        if isinstance(method, str):
            method = self.program.method_by_id(method)
        cfg = self._cfgs.get(method.method_id)
        if cfg is None:
            cfg = self._cfgs[method.method_id] = cfg_of(method)
        return cfg

    def method_of(self, ref: StmtRef) -> Method:
        return self.program.method_by_id(ref.method_id)

    def stmt_of(self, ref: StmtRef) -> Stmt:
        return self.method_of(ref).stmt_at(ref.index)

    def succ_refs(self, ref: StmtRef) -> list[StmtRef]:
        cfg = self.cfg(ref.method_id)
        return [StmtRef(ref.method_id, i) for i in cfg.stmt_succ.get(ref.index, [])]

    def pred_refs(self, ref: StmtRef) -> list[StmtRef]:
        cfg = self.cfg(ref.method_id)
        return [StmtRef(ref.method_id, i) for i in cfg.stmt_pred.get(ref.index, [])]

    def callees(self, ref: StmtRef) -> list[Method]:
        return [
            self.program.method_by_id(mid)
            for mid in self.callgraph.callees_of(ref)
        ]

    def entry_ref(self, method: Method) -> StmtRef:
        return StmtRef(method.method_id, 0)

    def return_refs(self, method: Method) -> list[StmtRef]:
        assert method.body is not None
        from ..ir.statements import ReturnStmt

        return [
            method.stmt_ref(s)
            for s in method.body
            if isinstance(s, ReturnStmt)
        ]


__all__ = ["ICFG"]
