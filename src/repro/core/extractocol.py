"""The Extractocol pipeline (paper Figure 2).

``Extractocol().analyze(apk)`` runs the three phases end to end:

1. **Network-aware program slicing** — scan demarcation points, run
   bidirectional taint propagation, augment forward slices (§3.1).
2. **Signature extraction** — flow-sensitive abstract interpretation scoped
   to the slices, producing request/response signatures (§3.2).
3. **Message dependency analysis** — request-response pairing and
   field-granularity inter-transaction dependencies (§3.3).
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace

from collections import deque

from ..apk.model import Apk, TriggerKind
from ..cfg.callgraph import build_callgraph
from ..deps.interdep import infer_dependencies
from ..deps.transactions import Transaction, from_record
from ..obs.phases import PhaseStats
from ..obs.tracer import NULL_TRACER
from ..perf.index import ProgramIndex
from ..semantics.async_model import compute_event_roots, discover_callbacks
from ..semantics.model import SemanticModel
from ..signature.builder import SignatureInterpreter
from ..slicing.demarcation import DemarcationRegistry
from ..slicing.slicer import NetworkSlicer
from ..taint.engine import TaintConfig
from .config import MODES, AnalysisConfig
from .report import AnalysisReport


class Extractocol:
    """The analysis entry point.

    Stateless across :meth:`analyze` calls except for two observability
    artifacts refreshed per call: ``last_slicing`` (the raw
    :class:`~repro.slicing.slicer.SlicingReport`, needed by
    ``repro explain``) and the spans emitted on ``tracer`` (the default
    :data:`~repro.obs.tracer.NULL_TRACER` discards them for free).
    """

    def __init__(
        self,
        config: AnalysisConfig | None = None,
        *,
        model: SemanticModel | None = None,
        registry: DemarcationRegistry | None = None,
        tracer=NULL_TRACER,
        store=None,
    ) -> None:
        self.config = config or AnalysisConfig()
        self.model = model
        self.registry = registry
        self.tracer = tracer
        self.store = store
        self.last_slicing = None
        self.last_manifest = None

    # ------------------------------------------------------------------ phases
    def analyze(self, apk: Apk, *, renames=None) -> AnalysisReport:
        """Analyze ``apk`` under ``config.mode``:

        * ``full`` — scan every demarcation point and slice each one;
        * ``incremental`` — diff the store's manifest for this app against
          the new program's fingerprints and replay unchanged DP slices
          (:mod:`repro.incr.reuse`); ``renames`` is the
          :class:`~repro.apk.rewrite.RenameMap` from the manifest's version
          to this one, for obfuscated re-releases.

        Both produce byte-identical reports.  When a ``store`` was
        given, either mode leaves a fresh manifest behind for the next
        warm run (skipped under ``record_provenance`` — provenance tables
        are not serialized, so cached slices could not carry them).

        The cyclic collector is paused for the call and left as it was
        found (DESIGN.md "Allocation shape"): an analysis builds no
        reference cycles, so every collection it would trigger finds
        nothing.
        """
        collector_on = gc.isenabled()
        gc.disable()
        try:
            return self._analyze(apk, renames)
        finally:
            if collector_on:
                gc.enable()

    def _analyze(self, apk: Apk, renames) -> AnalysisReport:
        if self.config.mode not in MODES:
            raise ValueError(f"unknown analysis mode: {self.config.mode!r}")
        started = time.perf_counter()
        stats = PhaseStats()
        app_span = self.tracer.span(f"analyze:{apk.name}")
        program = apk.program

        # Opt-in pre-analysis lint gate (DESIGN.md "Static checking"): the
        # default "off" costs exactly this one branch; any other level runs
        # the static pass families and may abort before the pipeline.
        lint_findings = []
        if self.config.lint_level != "off":
            from ..lint.runner import gate as lint_gate
            from ..lint.runner import lint_apk

            with stats.phase("lint", app_span) as sp:
                lint_report = lint_apk(
                    apk, registry=self.registry, model=self.model
                )
                lint_gate(lint_report, self.config.lint_level)
                lint_findings = lint_report.findings
                for severity, amount in lint_report.counts().items():
                    if amount:
                        sp.count(f"findings_{severity}", amount)

        with stats.phase("setup", app_span) as sp:
            callgraph = build_callgraph(program)

            # Implicit call flows (AsyncTask & friends, §3.4) extend the
            # call graph before slicing so backward/forward propagation
            # crosses them.
            cbinfo = discover_callbacks(program, callgraph)
            if self.config.model_intents:
                from ..semantics.extensions import discover_intent_edges

                discover_intent_edges(program, callgraph)
            event_roots = compute_event_roots(
                program,
                callgraph,
                [ep.method_id for ep in apk.entrypoints],
                cbinfo.boundary_methods,
            )

            # One ProgramIndex per analysis, shared by both taint
            # directions, the slicer and the signature interpreter; it is
            # also the only CFG memo, so it dies with this call.
            index = ProgramIndex(program, callgraph)
            sp.count("entrypoints", len(apk.entrypoints))
            sp.count("statements", program.statement_count())

        # Phase 1 — network-aware program slicing.
        with stats.phase("slicing", app_span) as sp:
            slicer = NetworkSlicer(
                program,
                callgraph,
                config=TaintConfig(
                    max_async_hops=self.config.max_async_hops,
                    record_provenance=self.config.record_provenance,
                ),
                registry=self.registry,
                event_roots=event_roots,
                linked_returns=cbinfo.linked_returns,
                index=index,
            )
            fingerprints = None
            if self.config.mode == "incremental":
                slicing, fingerprints = self._slice_incremental(
                    apk, slicer, callgraph, sp,
                    event_roots=event_roots,
                    cbinfo=cbinfo,
                    renames=renames,
                    stats=stats,
                )
            else:
                slicing = slicer.slice_all(span=sp)
            self.last_slicing = slicing
            self._store_manifest(
                apk, callgraph, slicing, fingerprints,
                event_roots=event_roots, cbinfo=cbinfo,
            )
            stats.count("demarcation_points", len(slicing.slices))
            for s in slicing.slices:
                for name, amount in s.request.stats.items():
                    stats.count(f"taint_{name}", amount)
                for name, amount in s.response.stats.items():
                    stats.count(f"taint_{name}", amount)

        # Phase 2 — signature extraction over the slices.
        with stats.phase("signatures", app_span) as sp:
            relevant = None
            if self.config.use_slicing:
                relevant = self._relevant_methods(slicing, callgraph)
            blocked = slicing.missed_async_flows - slicing.sliced_statements

            model = self.model
            if model is None and (self.config.model_intents or self.config.model_sockets):
                from ..semantics.extensions import build_model

                model = build_model(
                    model_intents=self.config.model_intents,
                    model_sockets=self.config.model_sockets,
                )
            interp = SignatureInterpreter(
                program,
                callgraph,
                model=model,
                resources=apk.resources,
                relevant_methods=relevant,
                blocked_field_stores=blocked,
                rounds=self.config.rounds,
                index=index,
            )
            roots = [(ep.method_id, ep.kind.value) for ep in apk.entrypoints]
            result = interp.run(roots, span=sp)
            stats.count("methods_evaluated", len(result.evaluated_methods))

        # Phase 3 — transactions + dependencies.
        with stats.phase("dependencies", app_span) as sp:
            transactions = [from_record(r) for r in result.transactions]
            transactions = self._scope_filter(transactions, program)
            infer_dependencies(transactions, span=sp if sp else None)
            transactions = _dedupe(transactions)
            stats.count("transactions", len(transactions))

        report = AnalysisReport(
            app=apk.name,
            transactions=[t for t in transactions if t.is_identified],
            unidentified=[t for t in transactions if not t.is_identified],
            slice_fraction=slicing.slice_fraction,
            demarcation_points=len(slicing.slices),
            analysis_seconds=time.perf_counter() - started,
            phase_stats=stats,
        )
        report.dependencies = [d for t in report.transactions for d in t.depends_on]
        if self.config.lint_level != "off":
            from ..lint.diagnostics import count_by_severity, sort_findings
            from ..lint.signature import signature_report

            report.lint_findings = sort_findings(
                lint_findings + signature_report(report, slicing)
            )
            for severity, amount in count_by_severity(report.lint_findings).items():
                if amount:
                    stats.count(f"lint_findings_{severity}", amount)
        if app_span:
            app_span.seconds = report.analysis_seconds
            for name, amount in sorted(stats.counters.items()):
                app_span.count(name, amount)
        return report

    # ------------------------------------------------------------- incremental
    def _slice_incremental(
        self, apk, slicer, callgraph, sp, *,
        event_roots, cbinfo, renames, stats,
    ):
        """Phase-1 with manifest reuse: scan fresh, diff fingerprints
        against the stored manifest, re-slice only dirtied demarcation
        points and replay the rest, merged back in scan order.

        Returns ``(slicing report, live fingerprints or None)``."""
        from ..incr.reuse import (
            ReuseIndex,
            _has_renames,
            fingerprints_in_base_namespace,
        )
        from ..slicing.slicer import SlicingReport

        program = apk.program
        # Exactly one scan per callgraph: listener resolution moves sites
        # from library_sites into implicit edges, so a second scan on the
        # same graph would miss callback-style demarcation points.
        dps = slicer.scan()
        manifest = None
        if self.store is not None and not self.config.record_provenance:
            manifest = self.store.get_manifest(apk.name, self.config.cache_key())
        if manifest is None:
            # Cold (or schema/config-guarded) start: everything is dirty.
            report = slicer.slice_all(span=sp, dps=dps)
            stats.incremental = {
                "reused": 0,
                "reanalyzed": len(dps),
                "dirty_methods": sum(1 for _ in program.methods()),
            }
            return report, None

        # Fingerprints compare in the manifest's (old) namespace: renamed
        # re-releases map back first; otherwise the live post-scan
        # artifacts are the old namespace already, and the same map goes
        # into the manifest this run leaves behind.
        live_fp = None
        if _has_renames(renames):
            new_fp = fingerprints_in_base_namespace(
                apk, self.config, registry=self.registry, renames=renames
            )
        else:
            new_fp = live_fp = self._fingerprints(
                apk, callgraph, event_roots=event_roots, cbinfo=cbinfo
            )
        plan = ReuseIndex(manifest).plan(
            dps, new_fp, program, callgraph, renames=renames
        )
        dirty_report = slicer.slice_all(span=sp, dps=plan.dirty_dps)
        dirty_by_key = {s.dp.key: s for s in dirty_report.slices}
        stats.incremental = plan.counters
        if sp:
            for name, amount in sorted(plan.counters.items()):
                sp.count(f"incremental_{name}", amount)
        return SlicingReport(
            slices=[
                plan.reused.get(dp.key) or dirty_by_key[dp.key] for dp in dps
            ],
            total_statements=dirty_report.total_statements,
        ), live_fp

    def _store_manifest(
        self, apk, callgraph, slicing, fingerprints, *, event_roots, cbinfo
    ):
        """Leave a manifest behind for the next warm run (any mode).
        ``fingerprints`` is the reuse plan's live map, if it made one
        (slicing adds no call-graph edges after the scan); else it is
        computed here.  Skipped without a store (fingerprinting prints the
        whole program) and under ``record_provenance`` (prov tables don't
        serialize into the slim slices, so replay would drop them)."""
        self.last_manifest = None
        if self.store is None or self.config.record_provenance:
            return
        from ..incr.manifest import build_manifest

        if fingerprints is None:
            fingerprints = self._fingerprints(
                apk, callgraph, event_roots=event_roots, cbinfo=cbinfo
            )
        manifest = build_manifest(
            app=apk.name,
            config_key=self.config.cache_key(),
            methods=fingerprints,
            program=apk.program,
            slicing=slicing,
        )
        self.last_manifest = manifest
        self.store.put_manifest(manifest)

    @staticmethod
    def _fingerprints(apk, callgraph, *, event_roots, cbinfo):
        """Method fingerprints of the live program, from its post-scan
        call graph."""
        from ..ir.fingerprint import fingerprint_program

        return fingerprint_program(
            apk.program,
            callgraph,
            event_roots=event_roots,
            linked_returns=cbinfo.linked_returns,
            entrypoint_ids=frozenset(ep.method_id for ep in apk.entrypoints),
        )

    # ------------------------------------------------------------------ helpers
    def _relevant_methods(self, slicing, callgraph) -> set[str]:
        """Slice methods plus everything that can call into them — the scope
        signature building interprets (the slice-efficiency win of §3.2).

        A worklist BFS over the reverse-edge adjacency: each method is
        expanded once and each caller edge inspected once — O(V + E) instead
        of the previous re-scan-until-fixpoint."""
        slice_methods: set[str] = set()
        for s in slicing.slices:
            slice_methods |= s.methods
        out = set(slice_methods)
        worklist = deque(out)
        while worklist:
            mid = worklist.popleft()
            for caller_id in callgraph.caller_methods_of(mid):
                if caller_id not in out:
                    out.add(caller_id)
                    worklist.append(caller_id)
        return out

    def _scope_filter(
        self, transactions: list[Transaction], program
    ) -> list[Transaction]:
        prefixes = self.config.scope_prefixes
        if not prefixes:
            return transactions
        out = []
        for txn in transactions:
            cls = txn.site.method_id.strip("<").split(":", 1)[0]
            if any(cls.startswith(p) for p in prefixes):
                out.append(txn)
        return out


def _dedupe(transactions: list[Transaction]) -> list[Transaction]:
    """Collapse identical signatures recorded from different contexts,
    remapping dependency edges onto the representatives.

    Merged edges accumulate in a side table instead of being extended onto
    the representative's live ``depends_on`` list: mutating a list that is
    also the source of later merge/remap iterations double-counts edges
    when three or more contexts collapse onto one representative."""
    by_key: dict[tuple, Transaction] = {}
    rep_of: dict[int, int] = {}
    merged_deps: dict[int, list] = {}
    for txn in sorted(transactions, key=lambda t: t.txn_id):
        key = (
            txn.request.method,
            txn.request.uri_regex,
            str(txn.request.body),
            str(txn.response.body),
            # distinct dependency sources keep dynamically derived requests
            # apart (TED's ad video vs talk video are both `GET (.*)`)
            tuple(sorted((d.src_txn, d.src_path) for d in txn.depends_on)),
        )
        rep = by_key.get(key)
        if rep is None:
            by_key[key] = txn
            rep_of[txn.txn_id] = txn.txn_id
            merged_deps[txn.txn_id] = list(txn.depends_on)
        else:
            rep_of[txn.txn_id] = rep.txn_id
            rep.response = replace(
                rep.response,
                consumers=rep.response.consumers | txn.response.consumers,
            )
            merged_deps[rep.txn_id].extend(txn.depends_on)
    final = list(by_key.values())
    for txn in final:
        remapped = []
        seen: set[str] = set()
        for d in merged_deps[txn.txn_id]:
            d = replace(
                d,
                src_txn=rep_of.get(d.src_txn, d.src_txn),
                dst_txn=rep_of.get(d.dst_txn, d.dst_txn),
            )
            if d.src_txn == d.dst_txn:
                continue
            if str(d) not in seen:
                seen.add(str(d))
                remapped.append(d)
        txn.depends_on = remapped
    return final


__all__ = ["Extractocol"]
