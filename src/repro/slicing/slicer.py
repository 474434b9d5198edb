"""Network-aware program slicing orchestration (paper §3.1).

For every demarcation point: run backward taint propagation from the
request seeds (request slice), forward propagation from the response seeds
(response slice), then apply *object-aware augmentation* so the forward
slice is self-contained — objects used while processing a response but
initialised before the demarcation point get their initialisation
statements pulled in from the request-side context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cfg.callgraph import CallGraph
from ..ir.program import Program
from ..ir.statements import StmtRef
from ..ir.values import Local
from ..obs.tracer import NULL_SPAN
from ..perf.index import ProgramIndex
from ..taint.engine import TaintConfig, TaintEngine
from ..taint.slices import SliceResult
from .demarcation import DPInstance, DemarcationRegistry, scan_demarcation_points


@dataclass
class DPSlices:
    dp: DPInstance
    request: SliceResult
    response: SliceResult
    #: wall time spent slicing this demarcation point
    seconds: float = 0.0

    @property
    def all_stmts(self) -> set[StmtRef]:
        return self.request.stmts | self.response.stmts

    @property
    def methods(self) -> set[str]:
        return self.request.methods | self.response.methods


@dataclass
class SlicingReport:
    """Aggregate slicing output plus the coverage statistics Fig. 3 cites
    ("the resulting slices only contain 6.3% of all code")."""

    slices: list[DPSlices] = field(default_factory=list)
    total_statements: int = 0

    @property
    def sliced_statements(self) -> set[StmtRef]:
        out: set[StmtRef] = set()
        for s in self.slices:
            out |= s.all_stmts
        return out

    @property
    def slice_fraction(self) -> float:
        if not self.total_statements:
            return 0.0
        return len(self.sliced_statements) / self.total_statements

    @property
    def missed_async_flows(self) -> set[StmtRef]:
        out: set[StmtRef] = set()
        for s in self.slices:
            out |= s.request.missed_async_flows | s.response.missed_async_flows
        return out


class NetworkSlicer:
    def __init__(
        self,
        program: Program,
        callgraph: CallGraph,
        *,
        config: TaintConfig | None = None,
        registry: DemarcationRegistry | None = None,
        event_roots: dict[str, frozenset[str]] | None = None,
        linked_returns: dict[str, list[tuple[str, int]]] | None = None,
        index: ProgramIndex | None = None,
    ) -> None:
        self.program = program
        self.callgraph = callgraph
        self.registry = registry or DemarcationRegistry()
        self.index = index if index is not None else ProgramIndex(program, callgraph)
        self._stmt_tables: dict[str, list | None] = {}
        self.engine = TaintEngine(
            program,
            callgraph,
            config,
            event_roots=event_roots,
            linked_returns=linked_returns,
            index=self.index,
        )

    def scan(self) -> list[DPInstance]:
        return scan_demarcation_points(self.program, self.callgraph, self.registry)

    def slice_dp(self, dp: DPInstance) -> DPSlices:
        started = time.perf_counter()
        request = self.engine.backward_slice(dp.request_seeds)
        response = self.engine.forward_slice(dp.response_seeds)
        self._augment(response, request)
        return DPSlices(
            dp=dp,
            request=request,
            response=response,
            seconds=time.perf_counter() - started,
        )

    def slice_all(
        self, *, span=NULL_SPAN, dps: list[DPInstance] | None = None
    ) -> SlicingReport:
        """Slice every demarcation point, in scan order.  When ``span`` is
        a live span, one ``dp:<site>`` child per demarcation point is
        emitted, in scan order, so traces are deterministic.

        ``dps`` restricts slicing to an explicit subset (in the given
        order) instead of a fresh scan — the incremental engine passes only
        the dirtied demarcation points here and replays the rest from the
        manifest cache."""
        report = SlicingReport(total_statements=self.program.statement_count())
        if dps is None:
            dps = self.scan()
        report.slices = [self.slice_dp(dp) for dp in dps]
        if span:
            span.set("demarcation_points", len(dps))
            for s in report.slices:
                child = span.child(f"dp:{s.dp.site}")
                child.seconds = s.seconds
                for name, amount in sorted(s.request.stats.items()):
                    child.count(f"request_{name}", amount)
                for name, amount in sorted(s.response.stats.items()):
                    child.count(f"response_{name}", amount)
        return report

    # -- object-aware augmentation (paper §3.1) -------------------------------
    def _locals_of(self, method_id: str) -> tuple[list, list] | None:
        """The method's per-statement (defined, used) local sets, via the
        shared index; None when the method is unknown."""
        table = self._stmt_tables.get(method_id, False)
        if table is False:
            try:
                method = self.program.method_by_id(method_id)
            except KeyError:
                table = None
            else:
                table = self.index.stmt_locals(method)
            self._stmt_tables[method_id] = table
        return table

    def _augment(self, response: SliceResult, request: SliceResult) -> None:
        """Pull statements the forward slice depends on but does not contain
        — initialisation of objects created before the demarcation point —
        from the request slice sharing the same DP.  Repeats until no
        statements are added."""
        changed = True
        while changed:
            changed = False
            needed = self._dangling_locals(response)
            # 1) prefer statements already in the request slice sharing the DP
            for ref in request.stmts:
                if ref in response.stmts:
                    continue
                table = self._locals_of(ref.method_id)
                if table is None:
                    continue
                if any((ref.method_id, v) in needed for v in table[0][ref.index]):
                    response.stmts.add(ref)
                    changed = True
            # 2) objects initialised before the DP outside any slice: pull
            # their defining statements from the containing method directly
            # ("the complete context of objects contained within", §3.1)
            still_needed = self._dangling_locals(response)
            by_method: dict[str, set[Local]] = {}
            for method_id, local in still_needed:
                by_method.setdefault(method_id, set()).add(local)
            for method_id, locals_ in by_method.items():
                try:
                    method = self.program.method_by_id(method_id)
                except KeyError:
                    continue
                assert method.body is not None
                defs_at, _uses_at = self.index.stmt_locals(method)
                for idx, defs in enumerate(defs_at):
                    if defs & locals_:
                        ref = StmtRef(method.method_id, idx)
                        if ref not in response.stmts:
                            response.stmts.add(ref)
                            changed = True

    def _dangling_locals(self, sl: SliceResult) -> set[tuple[str, Local]]:
        """Locals used in the slice whose definition is not in the slice."""
        defined: set[tuple[str, Local]] = set()
        used: set[tuple[str, Local]] = set()
        for ref in sl.stmts:
            table = self._locals_of(ref.method_id)
            if table is None:
                continue
            mid = ref.method_id
            for d in table[0][ref.index]:
                defined.add((mid, d))
            for v in table[1][ref.index]:
                used.add((mid, v))
        return used - defined


__all__ = ["DPSlices", "NetworkSlicer", "SlicingReport"]
