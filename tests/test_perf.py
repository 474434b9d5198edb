"""Tests for the memoized analysis engine (`repro.perf`).

The contracts under test: the :class:`ProgramIndex` artifacts equal the
freshly computed reference relations they replace (report identity is
pinned by the golden oracle in ``test_golden_reports.py``); the index is
the only CFG memo, so an analysis pins nothing once it returns; and the
batch-level worker-sizing knob normalises as documented.
"""

from __future__ import annotations

import gc
import os
import weakref

import pytest

from repro.cfg.callgraph import build_callgraph
from repro.cfg.cfg import cfg_of
from repro.core.config import AnalysisConfig
from repro.core.extractocol import Extractocol, _dedupe
from repro.corpus import build_app, get_spec
from repro.deps.transactions import Dependency, RequestSig, ResponseSig, Transaction
from repro.evalx import runner
from repro.ir.statements import AssignStmt, StmtRef
from repro.ir.values import InstanceFieldRef, Local, StaticFieldRef, walk_values
from repro.perf.index import ProgramIndex, compute_reach_masks, field_key
from repro.perf.parallel import resolve_workers, usable_cpus
from repro.signature.lang import Const
from repro.slicing.slicer import NetworkSlicer
from repro.taint.defuse import LazyDefUse, compute_defuse


# -------------------------------------------------- index artifact equality
def _brute_reach_sets(method):
    """Reference forward reachability as sets."""
    cfg = cfg_of(method)
    n = len(method.body.statements) if method.body else 0
    succ = cfg.stmt_succ
    reach = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            acc = set(reach[i])
            for s in succ.get(i, ()):
                acc |= reach[s]
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    return reach


def _bits(mask: int) -> set[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


@pytest.fixture(scope="module")
def indexed_program():
    apk = build_app("diode")
    callgraph = build_callgraph(apk.program)
    return apk.program, ProgramIndex(apk.program, callgraph)


def _bodied_methods(program):
    return [m for m in program.methods() if m.body is not None]


def test_reach_masks_equal_reference_sets(indexed_program):
    program, index = indexed_program
    for method in _bodied_methods(program):
        masks = index.reach_masks(method)
        expected = _brute_reach_sets(method)
        assert [_bits(m) for m in masks] == expected, method.method_id


def test_reach_to_masks_are_exact_transpose(indexed_program):
    program, index = indexed_program
    for method in _bodied_methods(program):
        fwd = index.reach_masks(method)
        to = index.reach_to_masks(method)
        n = len(fwd)
        assert len(to) == n
        for j in range(n):
            expected = {i for i in range(n) if (fwd[i] >> j) & 1}
            assert _bits(to[j]) == expected, (method.method_id, j)


def test_mention_sites_and_masks_match_statement_walk(indexed_program):
    program, index = indexed_program
    for method in _bodied_methods(program):
        brute: dict[Local, set[int]] = {}
        for idx, stmt in enumerate(method.body.statements):
            touched = {d for d in stmt.defs() if isinstance(d, Local)}
            for use in stmt.uses():
                touched |= {v for v in walk_values(use) if isinstance(v, Local)}
            for local in touched:
                brute.setdefault(local, set()).add(idx)
        sites = index.mention_sites(method)
        assert {loc: set(s) for loc, s in sites.items()} == brute
        masks = index.mention_masks(method)
        assert {loc: _bits(m) for loc, m in masks.items()} == brute


def test_lazy_defuse_answers_equal_full_computation(indexed_program):
    program, index = indexed_program
    lazy_seen = 0
    for method in _bodied_methods(program):
        full = compute_defuse(method)
        du = index.defuse_of(method)
        if isinstance(du, LazyDefUse):
            lazy_seen += 1
        assert du.def_sites == full.def_sites
        assert du.use_sites == full.use_sites
        for local, uses in full.use_sites.items():
            for use_idx in uses:
                stmt = method.body.statements[use_idx]
                assert du.reaching_defs(stmt, local) == full.reaching_defs(
                    stmt, local
                ), (method.method_id, use_idx, local.name)
    assert lazy_seen > 0  # the lazy path is actually exercised


def test_field_index_matches_statement_scan(indexed_program):
    program, index = indexed_program
    stores: dict[tuple[str, str], list[StmtRef]] = {}
    loads: dict[tuple[str, str], list[StmtRef]] = {}
    for method in _bodied_methods(program):
        for stmt in method.body:
            if not isinstance(stmt, AssignStmt):
                continue
            if isinstance(stmt.target, (InstanceFieldRef, StaticFieldRef)):
                stores.setdefault(field_key(stmt.target.field), []).append(
                    method.stmt_ref(stmt)
                )
            if isinstance(stmt.rhs, (InstanceFieldRef, StaticFieldRef)):
                loads.setdefault(field_key(stmt.rhs.field), []).append(
                    method.stmt_ref(stmt)
                )
    assert index.field_stores == stores
    assert index.field_loads == loads


def test_compute_reach_masks_empty_method():
    class _Cfg:
        stmt_succ: dict = {}

    assert compute_reach_masks(_Cfg(), 0) == []


# ---------------------------------------------------------- memo lifetime
def test_analysis_pins_no_method_after_the_apk_is_dropped():
    """Regression: a process-wide CFG memo keyed by ``id(method)`` kept
    every analyzed body alive for the life of the process (shard workers,
    ``repro serve``).  The per-analysis ProgramIndex is now the only memo,
    so once ``analyze`` returns and the APK is dropped, its methods die."""
    apk = get_spec("diode").build_apk()
    report = Extractocol(AnalysisConfig()).analyze(apk)
    assert report.transactions
    method = next(m for m in apk.program.methods() if m.body is not None)
    alive = weakref.ref(method)
    del apk, method
    gc.collect()
    assert alive() is None


# --------------------------------------------- call graph reverse adjacency
def test_caller_methods_consistent_with_caller_sites(indexed_program):
    program, index = indexed_program
    callgraph = index.callgraph
    for method in program.methods():
        mid = method.method_id
        assert callgraph.caller_methods_of(mid) == {
            site.method_id for site in callgraph.callers_of(mid)
        }


def test_relevant_methods_bfs_equals_fixpoint_closure():
    apk = build_app("diode")
    callgraph = build_callgraph(apk.program)
    slicer = NetworkSlicer(apk.program, callgraph)
    slicing = slicer.slice_all()
    assert slicing.slices  # the closure below must not be vacuous

    bfs = Extractocol()._relevant_methods(slicing, callgraph)

    expected: set[str] = set()
    for s in slicing.slices:
        expected |= s.methods
    changed = True
    while changed:  # the seed's re-scan-until-fixpoint formulation
        changed = False
        for mid in list(expected):
            for site in callgraph.callers_of(mid):
                if site.method_id not in expected:
                    expected.add(site.method_id)
                    changed = True
    assert bfs == expected


# ----------------------------------------------------------- _dedupe repair
def _txn(txn_id: int, uri: str, deps: list[Dependency]) -> Transaction:
    return Transaction(
        txn_id=txn_id,
        site=StmtRef(f"<C: void m{txn_id}()>", 0),
        root="<C: void onCreate()>",
        request=RequestSig(method="GET", uri=Const(uri)),
        response=ResponseSig(kind="json"),
        depends_on=deps,
    )


def test_dedupe_three_contexts_sharing_a_dependency_list():
    """Regression: three contexts collapsing onto one representative while
    literally sharing a ``depends_on`` list must not double-count edges or
    mutate the shared input list."""
    shared = [Dependency(src_txn=0, src_path="$.token", dst_txn=1, dst_field="uri")]
    source = _txn(0, "http://x/login", [])
    contexts = [_txn(i, "http://x/feed", shared) for i in (1, 2, 3)]

    out = _dedupe([source] + contexts)

    assert len(shared) == 1  # input list untouched
    assert sorted(t.txn_id for t in out) == [0, 1]
    rep = next(t for t in out if t.txn_id == 1)
    assert [str(d) for d in rep.depends_on] == ["txn0[$.token] -> txn1.uri"]


def test_dedupe_remaps_edges_onto_representatives():
    """An edge pointing at a collapsed duplicate must be remapped onto the
    duplicate's representative."""
    a1 = _txn(1, "http://x/feed", [])
    a2 = _txn(2, "http://x/feed", [])  # collapses onto txn 1
    consumer = _txn(
        3,
        "http://x/item",
        [Dependency(src_txn=2, src_path="$.id", dst_txn=3, dst_field="uri")],
    )
    out = _dedupe([a1, a2, consumer])
    assert sorted(t.txn_id for t in out) == [1, 3]
    rep = next(t for t in out if t.txn_id == 3)
    assert [str(d) for d in rep.depends_on] == ["txn1[$.id] -> txn3.uri"]


# ------------------------------------------------------- evalx single build
def test_evaluate_app_builds_apk_once(monkeypatch):
    real_spec = get_spec("diode")
    calls = {"n": 0}

    class CountingSpec:
        def __getattr__(self, name):
            return getattr(real_spec, name)

        def build_apk(self):
            calls["n"] += 1
            return real_spec.build_apk()

    counting = CountingSpec()
    monkeypatch.setattr(runner, "get_spec", lambda key: counting)
    runner.clear_cache()
    try:
        evaluation = runner.evaluate_app("diode")
        assert calls["n"] == 1
        assert evaluation.report.transactions
    finally:
        runner.clear_cache()


# ------------------------------------------------------------ worker knobs
def test_resolve_workers_normalisation():
    cpus = os.cpu_count() or 1
    assert resolve_workers(None) == cpus
    assert resolve_workers(0) == cpus
    assert resolve_workers(1) == 1
    assert resolve_workers(-3) == 1
    assert resolve_workers(7) == 7


def test_usable_cpus_prefers_affinity_mask(monkeypatch):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("platform has no sched_getaffinity")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert usable_cpus() == 3
    assert resolve_workers(0) == 3


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    def boom(pid):
        raise OSError("no affinity here")

    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", boom)
    assert usable_cpus() == (os.cpu_count() or 1)
