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
from functools import cached_property

from ..cfg.callgraph import CallGraph
from ..ir.program import Program
from ..ir.statements import StmtRef
from ..obs.tracer import NULL_SPAN
from ..perf.index import ProgramIndex, SliceTable
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
        return self.request.stmts.keys() | self.response.stmts.keys()

    @property
    def methods(self) -> set[str]:
        return self.request.methods | self.response.methods


@dataclass
class SlicingReport:
    """Aggregate slicing output plus the coverage statistics Fig. 3 cites
    ("the resulting slices only contain 6.3% of all code")."""

    slices: list[DPSlices] = field(default_factory=list)
    total_statements: int = 0

    @cached_property
    def sliced_statements(self) -> set[StmtRef]:
        """The union of every demarcation point's slice statements,
        computed on first read (``slices`` is complete by then) and kept:
        the blocked-store set and ``slice_fraction`` both read it."""
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
    def _augment(self, response: SliceResult, request: SliceResult) -> None:
        """Pull statements the forward slice depends on but does not contain
        — initialisation of objects created before the demarcation point —
        from the request slice sharing the same DP.  Repeats until no
        statements are added.  An added statement has no provenance
        parent: no taint reached it.

        ``defined`` / ``used`` hold the response slice's (method id, local
        name) pairs; a statement's locals are read from its method's
        slicing table once, when it joins.  Each round snapshots the dangling
        locals (``used - defined``) before each of its two sweeps:
        statements joining during a sweep do not change what that sweep
        looks for.  The second sweep reads a dangling local's defining
        statements from the table's ``def_sites``."""
        slice_table = self.index.slice_table
        defined: set[tuple[str, str]] = set()
        used: set[tuple[str, str]] = set()

        def add_locals(ref: StmtRef, table: SliceTable) -> None:
            mid = ref.method_id
            local = table.defined[ref.index]
            if local is not None:
                defined.add((mid, local))
            for v in table.used[ref.index]:
                used.add((mid, v))

        for ref in response.stmts:
            add_locals(ref, slice_table(ref.method_id))
        changed = True
        while changed:
            changed = False
            needed = used - defined
            # 1) prefer statements already in the request slice sharing the DP
            for ref in request.stmts:
                if ref in response.stmts:
                    continue
                table = slice_table(ref.method_id)
                local = table.defined[ref.index]
                if local is not None and (ref.method_id, local) in needed:
                    response.stmts[ref] = None
                    add_locals(ref, table)
                    changed = True
            # 2) objects initialised before the DP outside any slice: pull
            # their defining statements from the containing method directly
            # ("the complete context of objects contained within", §3.1)
            for method_id, local in used - defined:
                table = slice_table(method_id)
                for idx in table.def_sites.get(local, ()):
                    ref = StmtRef(method_id, idx)
                    if ref not in response.stmts:
                        response.stmts[ref] = None
                        add_locals(ref, table)
                        changed = True


__all__ = ["DPSlices", "NetworkSlicer", "SlicingReport"]
