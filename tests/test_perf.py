"""Tests for the memoized analysis engine (`repro.perf`).

The contracts under test: every method's slicing table equals the
independently computed reference relations, on the corpus and on random
branchy bodies (report identity is pinned by the golden oracle in
``test_golden_reports.py``); slicing hashes and compares no ``Local`` and
builds no CFG; the index is
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
from hypothesis import HealthCheck, given, settings

from repro.cfg.callgraph import build_callgraph
from repro.cfg.cfg import ControlFlowGraph, cfg_of
from repro.core import extractocol
from repro.core.config import AnalysisConfig
from repro.core.extractocol import Extractocol, _dedupe
from repro.corpus import app_keys, build_app, get_spec
from repro.corpus.lineage import build_version
from repro.deps.transactions import Dependency, RequestSig, ResponseSig, Transaction
from repro.evalx import runner
from repro.ir import parse_type
from repro.ir.method import Body, Method, make_sig
from repro.ir.statements import AssignStmt, StmtRef
from repro.ir.values import (
    BinOpExpr,
    InstanceFieldRef,
    IntConst,
    Local,
    StaticFieldRef,
    walk_values,
)
from repro.perf.index import (
    ProgramIndex,
    SliceTable,
    compute_reach_masks,
    field_key,
)
from repro.perf.parallel import resolve_workers, usable_cpus
from repro.service.jobs import JobTimeout, call_with_timeout, resolve_target
from repro.service.store import ResultStore
from repro.signature.lang import Const
from repro.slicing.slicer import NetworkSlicer
from repro.synth import expand_targets
from repro.taint.defuse import compute_defuse

from conftest import branchy_methods, build_branchy_program
from test_golden_reports import SYNTH_POPULATION


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


@pytest.fixture(scope="module")
def tabled_methods():
    """(index, method) for every bodied method of the 34 corpus apps and
    of conftest's branchy program, whose loop gives it a back edge."""
    programs = [build_app(key).program for key in app_keys()]
    programs.append(build_branchy_program().build())
    out = []
    for program in programs:
        index = ProgramIndex(program)
        out.extend((index, m) for m in _bodied_methods(program))
    return out


def _has_back_edge(method) -> bool:
    succ = cfg_of(method).stmt_succ
    return any(s <= i for i, dests in succ.items() for s in dests)


def test_reach_masks_equal_reference_sets(tabled_methods):
    for index, method in tabled_methods:
        reach = index.slice_table(method.method_id).reach
        assert [_bits(m) for m in reach] == _brute_reach_sets(method), (
            method.method_id
        )
        n = len(method.body.statements)
        assert reach == compute_reach_masks(cfg_of(method), n)


def test_reach_to_masks_are_exact_transpose(tabled_methods):
    for index, method in tabled_methods:
        fwd = _brute_reach_sets(method)
        to = index.slice_table(method.method_id).reach_to
        n = len(fwd)
        assert len(to) == n
        for j in range(n):
            expected = {i for i in range(n) if j in fwd[i]}
            assert _bits(to[j]) == expected, (method.method_id, j)


def test_table_locals_and_mentions_match_statement_walk(tabled_methods):
    for index, method in tabled_methods:
        table = index.slice_table(method.method_id)
        brute: dict[str, set[int]] = {}
        for idx, stmt in enumerate(method.body.statements):
            defined = [d for d in stmt.defs() if isinstance(d, Local)]
            used = {
                v
                for use in stmt.uses()
                for v in walk_values(use)
                if isinstance(v, Local)
            }
            assert len(defined) <= 1
            assert table.defined[idx] == (defined[0].name if defined else None)
            assert table.used[idx] == {v.name for v in used}, (
                method.method_id, idx
            )
            for local in {*defined, *used}:
                brute.setdefault(local.name, set()).add(idx)
        n = len(method.body.statements)
        assert len(table.defined) == len(table.used) == n
        assert {loc: _bits(m) for loc, m in table.mentions.items()} == brute
        # statements that read no local share one empty set
        assert len({id(u) for u in table.used if not u}) <= 1


def test_table_defuse_answers_equal_full_computation(tabled_methods):
    back_edges = 0
    for index, method in tabled_methods:
        back_edges += _has_back_edge(method)
        full = compute_defuse(method)
        table = index.slice_table(method.method_id)
        assert table.def_sites == {
            local.name: sites for local, sites in full.def_sites.items()
        }
        assert table.use_sites == {
            local.name: sites for local, sites in full.use_sites.items()
        }
        for local, uses in full.use_sites.items():
            for use_idx in uses:
                stmt = method.body.statements[use_idx]
                assert table.reaching_defs(
                    use_idx, local.name
                ) == full.reaching_defs(stmt, local), (
                    method.method_id, use_idx, local.name
                )
    # the table's sweeps repeat only for a method with a back edge: the
    # checks cover that path too
    assert 0 < back_edges < len(tabled_methods)


def _body_locals(method) -> set[Local]:
    """Every local a body declares or any of its statements mentions."""
    out = set(method.body.locals.values())
    for stmt in method.body.statements:
        for top in (*stmt.defs(), *stmt.uses()):
            out.update(v for v in walk_values(top) if isinstance(v, Local))
    return out


def test_local_names_are_unique_per_body_in_the_golden_population():
    """The slicing table keys locals by name, which is sound only while no
    two distinct locals of one body share a name."""
    bodies = 0
    for key in [*app_keys(), *expand_targets([SYNTH_POPULATION])]:
        apk, _, _ = resolve_target(key)
        for method in _bodied_methods(apk.program):
            bodies += 1
            by_name: dict[str, set[Local]] = {}
            for local in _body_locals(method):
                by_name.setdefault(local.name, set()).add(local)
            clashes = {n: ls for n, ls in by_name.items() if len(ls) > 1}
            assert not clashes, (key, method.method_id, clashes)
    assert bodies > 1000


def test_slicing_compares_no_local_and_builds_no_cfg(monkeypatch):
    """One untraced analysis of every corpus app calls ``Local.__hash__``
    and ``Local.__eq__`` (Python code) zero times, and builds no
    ``ControlFlowGraph`` inside ``NetworkSlicer.slice_all``: the slicing
    tables are read off each body and key locals by name, and the taint
    engine, the augmentation and the demarcation scan compare names."""
    targets = [resolve_target(key)[:2] for key in app_keys()]
    calls: Counter = Counter()
    slicing: list[bool] = []
    local_hash, local_eq = Local.__hash__, Local.__eq__
    cfg_init, slice_all = ControlFlowGraph.__init__, NetworkSlicer.slice_all

    def counting_hash(self):
        calls["Local.__hash__"] += 1
        return local_hash(self)

    def counting_eq(self, other):
        calls["Local.__eq__"] += 1
        return local_eq(self, other)

    def counting_cfg(self, method):
        calls["cfg in slice_all" if slicing else "cfg elsewhere"] += 1
        cfg_init(self, method)

    def marked_slice_all(self, *args, **kwargs):
        slicing.append(True)
        try:
            return slice_all(self, *args, **kwargs)
        finally:
            slicing.pop()

    monkeypatch.setattr(Local, "__hash__", counting_hash)
    monkeypatch.setattr(Local, "__eq__", counting_eq)
    monkeypatch.setattr(ControlFlowGraph, "__init__", counting_cfg)
    monkeypatch.setattr(NetworkSlicer, "slice_all", marked_slice_all)
    for apk, config in targets:
        assert Extractocol(config).analyze(apk).demarcation_points
    assert calls["Local.__hash__"] == calls["Local.__eq__"] == 0, calls
    assert calls["cfg in slice_all"] == 0, calls
    # the wrappers do count: the signature interpreter still builds CFGs,
    # a set of one local hashes it once and ``==`` compares two
    assert calls["cfg elsewhere"] > 0
    x, y = Local("x", parse_type("int")), Local("y", parse_type("int"))
    _ = {x}
    assert x != y
    assert calls["Local.__hash__"] == calls["Local.__eq__"] == 1


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(branchy_methods())
def test_label_successors_give_the_cfg_relations(method):
    """A table reads its successors off the statements and the body's
    labels; on random branchy bodies (back edges, self loops, an ``if``
    whose target is its fall-through) every relation equals the one
    computed from the CFG."""
    table = SliceTable(method.body)
    n = len(method.body.statements)
    cfg = cfg_of(method)
    assert table.reach == compute_reach_masks(cfg, n)
    fwd = _brute_reach_sets(method)
    for j in range(n):
        assert _bits(table.reach_to[j]) == {i for i in range(n) if j in fwd[i]}
    full = compute_defuse(method)
    for local, uses in full.use_sites.items():
        for use_idx in uses:
            stmt = method.body.statements[use_idx]
            assert table.reaching_defs(use_idx, local.name) == (
                full.reaching_defs(stmt, local)
            ), (use_idx, local.name)


def test_tables_of_missing_empty_and_unsealed_bodies():
    """No body and an empty one give empty tables; an unsealed body whose
    last statement falls through has no edge off its end, as in the
    CFG."""
    for body in (None, Body()):
        table = SliceTable(body)
        assert table.defined == table.used == table.reach == table.reach_to == []
        assert table.def_sites == table.use_sites == table.mentions == {}
    method = Method(make_sig("app.A", "go", (), "void"), is_static=True)
    x = method.body.declare_local(Local("x", parse_type("int")))
    method.body.add(AssignStmt(x, IntConst(1)))
    method.body.add(AssignStmt(x, BinOpExpr("+", x, IntConst(1))))
    table = SliceTable(method.body)
    assert table.reach == compute_reach_masks(cfg_of(method), 2) == [0b11, 0b10]
    assert table.reach_to == [0b01, 0b11]
    assert table.reaching_defs(1, "x") == (0,)


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
        lint_on = replace(config, lint_level="record")
        collect_after(("lint", key), lambda: Extractocol(lint_on).analyze(apk))
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
