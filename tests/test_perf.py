"""Tests for the memoized analysis engine (`repro.perf`).

The contracts under test: the :class:`ProgramIndex` artifacts equal the
freshly computed reference relations they replace (report identity is
pinned by the golden oracle in ``test_golden_reports.py``); the index is
the only CFG memo, so an analysis pins nothing once it returns; an
analysis pauses the cyclic collector and leaves it as it found it, which
costs nothing because an analysis builds no reference cycles; and the
batch-level worker-sizing knob normalises as documented.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.cfg.callgraph import build_callgraph
from repro.cfg.cfg import cfg_of
from repro.core import extractocol
from repro.core.config import AnalysisConfig
from repro.core.extractocol import Extractocol, _dedupe
from repro.corpus import app_keys, build_app, get_spec
from repro.corpus.lineage import build_version
from repro.deps.transactions import Dependency, RequestSig, ResponseSig, Transaction
from repro.evalx import runner
from repro.ir.statements import AssignStmt, StmtRef
from repro.ir.values import InstanceFieldRef, Local, StaticFieldRef, walk_values
from repro.perf.index import ProgramIndex, compute_reach_masks, field_key
from repro.perf.parallel import resolve_workers, usable_cpus
from repro.service.jobs import JobTimeout, call_with_timeout, resolve_target
from repro.service.store import ResultStore
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


# --------------------------------------------------------- collector pause
def _set_collector(on: bool) -> None:
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_restored():
    """Put the collector back as the test found it."""
    was_on = gc.isenabled()
    yield
    _set_collector(was_on)


@pytest.mark.parametrize("outcome", ["report", "unknown mode", "phase raises"])
@pytest.mark.parametrize("found_on", [True, False], ids=["on", "off"])
def test_analyze_leaves_the_collector_as_it_found_it(
    found_on, outcome, monkeypatch, collector_restored
):
    apk = build_app("diode")
    config = AnalysisConfig()
    if outcome == "unknown mode":
        config = AnalysisConfig(mode="targeted")
    elif outcome == "phase raises":
        def fail(*args, **kwargs):
            raise RuntimeError("setup failed")

        monkeypatch.setattr(extractocol, "build_callgraph", fail)
    _set_collector(found_on)
    if outcome == "report":
        assert Extractocol(config).analyze(apk).transactions
    else:
        error = ValueError if outcome == "unknown mode" else RuntimeError
        with pytest.raises(error):
            Extractocol(config).analyze(apk)
    assert gc.isenabled() is found_on


def test_no_automatic_collection_starts_during_an_analysis(monkeypatch):
    """With the young threshold at 1, an enabled collector starts a
    collection on almost every allocation; from the first phase's entry
    to the last phase's exit, none may start."""
    apk = build_app("diode")
    inside: list[bool] = []
    starts: list[int] = []
    build, dedupe = extractocol.build_callgraph, extractocol._dedupe

    def first_phase(*args, **kwargs):
        inside.append(True)
        return build(*args, **kwargs)

    def last_phase(*args, **kwargs):
        try:
            return dedupe(*args, **kwargs)
        finally:
            inside.clear()

    def on_collection(phase, info):
        if phase == "start" and inside:
            starts.append(info["generation"])

    monkeypatch.setattr(extractocol, "build_callgraph", first_phase)
    monkeypatch.setattr(extractocol, "_dedupe", last_phase)
    threshold = gc.get_threshold()
    gc.callbacks.append(on_collection)
    gc.set_threshold(1)
    try:
        assert Extractocol().analyze(apk).transactions
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(on_collection)
    assert starts == [], f"{len(starts)} collections started mid-analysis"


def test_overlapping_analyses_leave_the_collector_on(monkeypatch):
    """Four threads (more than the cores a CI host has) run two analyses
    each, every one held at its first phase until all four are inside,
    with the interpreter switching threads as often as it can.  Each
    analysis restores only what it found, so whichever order they finish
    in, the collector ends on."""
    apks = [build_app(key) for key in ("diode", "ted", "tzm", "wallabag")]
    all_inside = threading.Barrier(len(apks), timeout=60)
    build = extractocol.build_callgraph

    def meet(*args, **kwargs):
        all_inside.wait()
        return build(*args, **kwargs)

    monkeypatch.setattr(extractocol, "build_callgraph", meet)
    errors: list[BaseException] = []

    def run(apk):
        try:
            for _ in range(2):
                Extractocol().analyze(apk)
        except BaseException as exc:
            errors.append(exc)

    assert gc.isenabled()
    threads = [threading.Thread(target=run, args=(apk,)) for apk in apks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert gc.isenabled()


def test_timed_out_analysis_leaves_the_collector_on(monkeypatch):
    """``call_with_timeout`` abandons an analysis that blocks past the
    deadline, with the collector still paused by it; the timeout turns
    the collector back on."""
    apk = build_app("diode")
    release, finished = threading.Event(), threading.Event()
    build = extractocol.build_callgraph

    def blocked(*args, **kwargs):
        release.wait(60)
        return build(*args, **kwargs)

    def analyzer():
        try:
            return Extractocol().analyze(apk)
        finally:
            finished.set()

    monkeypatch.setattr(extractocol, "build_callgraph", blocked)
    assert gc.isenabled()
    try:
        with pytest.raises(JobTimeout):
            call_with_timeout(analyzer, 0.2)
        assert gc.isenabled()
    finally:
        release.set()
        # the abandoned analysis restores the collector before it ends
        assert finished.wait(60)
    assert gc.isenabled()


# ----------------------------------------------------- no reference cycles
#: apps also run incrementally (cold, then warm), linted and with provenance
FEW_APPS = ("pinterest", "reddinator", "ted")


def test_analyses_build_no_reference_cycles(tmp_path):
    """The collector pause is free only because an analysis builds no
    reference cycles: under the pause, a cycle would live until its
    analysis ends.  After each analysis a full collection must find
    nothing; each app is built and the heap collected first.  A failure
    names the types the collection found."""

    def collect_after(label, analyze):
        gc.collect()
        report = analyze()
        # saved, not freed: garbage found before the analysis would come
        # back as garbage once ``gc.garbage`` lets go of it
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            assert found == 0, (label, found, Counter(
                type(obj).__name__ for obj in gc.garbage).most_common(10))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        return report

    store = ResultStore(tmp_path)
    for key in app_keys():
        apk, config, _ = resolve_target(key)
        collect_after(("full", key), lambda: Extractocol(config).analyze(apk))
    for key in FEW_APPS:
        apk, config, _ = resolve_target(key)
        incremental = replace(config, mode="incremental")
        for leg in ("cold", "warm"):
            report = collect_after(
                (leg, key),
                lambda: Extractocol(incremental, store=store).analyze(apk),
            )
        assert report.phase_stats.incremental["reused"] > 0, key
        for change in ({"lint_level": "record"}, {"record_provenance": True}):
            collect_after(
                (change, key),
                lambda: Extractocol(replace(config, **change)).analyze(apk),
            )
    # a renamed re-release compares fingerprints in its base's namespace
    for label in ("tzm@v1", "tzm@v2"):
        built = build_version(label)
        incremental = replace(built.config, mode="incremental")
        report = collect_after(label, lambda: Extractocol(
            incremental, store=store
        ).analyze(built.apk, renames=built.renames_from_base))
    assert report.phase_stats.incremental["reused"] > 0


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
