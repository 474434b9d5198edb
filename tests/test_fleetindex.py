"""Fleet index contract tests: determinism (independent builds and
incremental fold-in are byte-identical), one file written once per fold,
crash recovery (lost and orphan pending markers, a damaged index file),
zero-rebuild freshness via the pending overlay, the query grammar, and
pagination."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apk.loader import apk_digest
from repro.fleetindex.docs import envelope_summary, report_summary
from repro.fleetindex import index as index_module
from repro.fleetindex.index import (
    FleetIndex,
    build_index,
    index_path,
    index_root,
    pending_dir,
)
from repro.fleetindex.query import (
    QueryError,
    catalog,
    decode_cursor,
    encode_cursor,
    paginate,
    parse_query,
    run_search,
)
from repro.obs.tracer import Span
from repro.service.jobs import _default_analyzer, resolve_target
from repro.service.store import ResultStore
from repro.synth import expand_targets
from repro.synth.compile import synth_genapp

SPEC = "synth:transports*4@3"


def put(store: ResultStore, target: str) -> str:
    """Analyze ``target`` and store its report; returns the result key."""
    apk, config, _ = resolve_target(target)
    return store.put(apk_digest(apk), config.cache_key(),
                     _default_analyzer(apk, config))


def fill_store(root) -> ResultStore:
    """Analyze the test population into a fresh store."""
    store = ResultStore(root)
    for target in expand_targets([SPEC]):
        put(store, target)
    return store


def index_tree(root) -> dict[str, bytes]:
    """Every index file's bytes, keyed by relative path."""
    base = index_root(root)
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*.json"))
    }


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-store")
    s = fill_store(root)
    build_index(s)
    return s


@pytest.fixture(scope="module")
def index(store):
    return FleetIndex(store).refresh()


class TestDeterminism:
    def test_independent_builds_byte_identical(self, store, tmp_path):
        other = fill_store(tmp_path / "other")
        build_index(other)
        assert index_tree(tmp_path / "other") == index_tree(store.root)

    def test_rebuild_is_idempotent(self, store):
        before = index_tree(store.root)
        build_index(store, rebuild=True)
        assert index_tree(store.root) == before

    def test_incremental_fold_equals_full_rebuild(self, tmp_path):
        # build over the first half, then put the rest (landing pending
        # markers) and fold incrementally
        targets = expand_targets([SPEC])
        grown = ResultStore(tmp_path / "grown")
        for target in targets[:2]:
            put(grown, target)
        build_index(grown)
        for target in targets[2:]:
            put(grown, target)
        stats = build_index(grown)
        assert not stats["rebuilt"] and stats["folded"] == 2

        full = fill_store(tmp_path / "full")
        build_index(full, rebuild=True)
        assert index_tree(tmp_path / "grown") == index_tree(tmp_path / "full")

    def test_query_results_identical_across_builds(self, store, tmp_path):
        other = fill_store(tmp_path / "q")
        build_index(other, rebuild=True)
        host = synth_genapp(expand_targets([SPEC])[0]).host
        a = run_search(FleetIndex(store).refresh(), f"host:{host}")
        b = run_search(FleetIndex(ResultStore(tmp_path / "q")).refresh(),
                       f"host:{host}")
        assert a == b


class TestOneFile:
    def test_fold_of_one_report_is_one_atomic_write(self, tmp_path,
                                                    monkeypatch):
        """The durable index is ``index.json`` alone: a fold that adds
        one report writes it once, and ``index/`` holds nothing but it
        and the marker directory."""
        targets = expand_targets([SPEC])
        store = ResultStore(tmp_path / "once")
        for target in targets[:-1]:
            put(store, target)
        build_index(store)
        put(store, targets[-1])
        writes = []
        atomic_write = index_module.atomic_write

        def counted(path, text):
            writes.append(path)
            atomic_write(path, text)

        monkeypatch.setattr(index_module, "atomic_write", counted)
        stats = build_index(store)
        assert stats["folded"] == 1 and not stats["rebuilt"]
        assert writes == [index_path(store.root)]
        assert sorted(p.name for p in index_root(store.root).iterdir()) == [
            "index.json", "pending",
        ]


class TestFreshness:
    def test_search_after_put_with_zero_rebuild(self, tmp_path):
        # the acceptance criterion: puts land pending markers, the reader
        # overlays their envelopes' documents — no build_index call anywhere
        store = fill_store(tmp_path / "fresh")
        targets = expand_targets([SPEC])
        index = FleetIndex(store).refresh()
        assert not index_path(store.root).exists()  # nothing durable exists
        for target in targets:
            host = synth_genapp(target).host
            result = run_search(index, f"host:{host}")
            assert result["total"] >= 1, f"{target} host {host} not found"

    def test_refresh_sees_new_puts(self, tmp_path):
        store = ResultStore(tmp_path / "grow")
        build_index(store)
        index = FleetIndex(store).refresh()
        assert index.stats()["docs"] == 0

        put(store, expand_targets([SPEC])[0])
        assert index.refresh().stats()["docs"] == 1

    def test_reload_after_one_put_reads_one_envelope(self, tmp_path,
                                                     monkeypatch):
        """The overlay keeps each unfolded report's document across
        reloads: an envelope never changes, so a reload derives only the
        new reports' documents."""
        store = fill_store(tmp_path / "memo")
        index = FleetIndex(store).refresh()
        assert index.stats()["pending"] == 4

        key = put(store, "diode")
        loads = []
        load = store.load
        monkeypatch.setattr(store, "load",
                            lambda k: loads.append(k) or load(k))
        stats = index.refresh().stats()
        assert loads == [key]
        assert stats["docs"] == stats["pending"] == 5

    def test_fold_consumes_pending(self, tmp_path):
        store = fill_store(tmp_path / "consume")
        assert len(list(pending_dir(store.root).iterdir())) == 4
        build_index(store)
        assert list(pending_dir(store.root).iterdir()) == []


class TestCrashRecovery:
    def test_fold_indexes_a_report_whose_marker_was_lost(self, tmp_path):
        """A writer died between a report's envelope and its marker (or
        the marker write failed): a fold over an existing index still
        indexes the report, found by the envelope scan."""
        store = ResultStore(tmp_path / "lost")
        build_index(store)  # an index exists, so the next fold is one
        fill_store(store.root)
        sorted(pending_dir(store.root).iterdir())[0].unlink()
        stats = build_index(store)
        assert not stats["rebuilt"]
        assert stats["docs"] == len(store.entries()) == 4
        assert stats["folded"] == 4

        clean = fill_store(tmp_path / "clean")
        build_index(clean)
        assert index_tree(store.root) == index_tree(clean.root)

    def test_non_utf8_manifest_recovered(self, tmp_path):
        store = fill_store(tmp_path / "bytes")
        build_index(store)
        index_path(store.root).write_bytes(b"\xff\xfe")
        assert FleetIndex(store).load().stats()["docs"] == 0
        assert build_index(store)["docs"] == 4

        clean = fill_store(tmp_path / "clean")
        build_index(clean)
        assert index_tree(store.root) == index_tree(tmp_path / "clean")

    def test_fold_skips_a_stored_file_that_is_not_an_envelope(self,
                                                              tmp_path):
        store = fill_store(tmp_path / "stray")
        stray = store.path_for("ab" + "0" * 62)
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_text("[1, 2]")
        (pending_dir(store.root) / f"{stray.stem}.json").touch()
        assert FleetIndex(store).load().stats()["docs"] == 4
        assert build_index(store)["docs"] == 4

    def test_orphan_pending_without_envelope_dropped(self, tmp_path):
        store = fill_store(tmp_path / "orphan")
        bogus = pending_dir(store.root) / "deadbeef-cafe.json"
        bogus.write_text("not json at all")
        build_index(store)
        assert not bogus.exists()
        assert FleetIndex(store).refresh().stats()["docs"] == 4

    @staticmethod
    def _tear(store, part: str) -> Path:
        """Cut ``index.json`` off inside ``part``: the doc registry
        (``docs``) or the postings (``terms``); returns its path."""
        path = index_path(store.root)
        text = path.read_text()
        path.write_text(text[:text.index(f'"{part}": ') + 40])
        return path

    @pytest.mark.parametrize("damaged", ["terms", "docs"])
    @pytest.mark.parametrize("put_between", [False, True])
    def test_fold_over_a_damaged_tree_rebuilds(self, tmp_path, damaged,
                                               put_between):
        """``index.json`` is torn in its postings or its doc registry:
        the next fold rebuilds it from the envelopes, with or without a
        report put in between."""
        targets = expand_targets([SPEC])
        store = ResultStore(tmp_path / "damaged")
        for target in targets[:-1] if put_between else targets:
            put(store, target)
        build_index(store)
        victim = self._tear(store, damaged)
        if put_between:
            put(store, targets[-1])
        stats = build_index(store)

        clean = fill_store(tmp_path / "clean")
        build_index(clean)
        assert stats["rebuilt"] and stats["docs"] == len(targets)
        assert json.loads(victim.read_text())["schema"] == 2
        assert index_tree(store.root) == index_tree(clean.root)
        assert (FleetIndex(store).load().stats()
                == FleetIndex(clean).load().stats())
        assert not build_index(store)["rebuilt"]  # intact again

    def test_reader_of_a_torn_index_sees_only_the_pending_overlay(
        self, tmp_path
    ):
        """Until a fold rebuilds it, a torn ``index.json`` hides every
        folded report: readers keep only the reports still pending.  The
        next fold writes the clean bytes."""
        targets = expand_targets([SPEC])
        store = ResultStore(tmp_path / "reader")
        for target in targets[:-1]:
            put(store, target)
        build_index(store)
        self._tear(store, "terms")
        put(store, targets[-1])
        stats = FleetIndex(store).load().stats()
        assert stats["docs"] == stats["pending"] == 1

        build_index(store)
        clean = fill_store(tmp_path / "clean")
        build_index(clean)
        assert index_tree(store.root) == index_tree(clean.root)

    def test_foreign_schema_index_rebuilt(self, tmp_path):
        store = fill_store(tmp_path / "foreign")
        build_index(store)
        path = index_path(store.root)
        data = json.loads(path.read_text())
        data["schema"] = 999
        path.write_text(json.dumps(data))
        stats = build_index(store)
        assert stats["rebuilt"]

        clean = fill_store(tmp_path / "foreignclean")
        build_index(clean)
        assert index_tree(store.root) == index_tree(tmp_path / "foreignclean")


class TestQueryGrammar:
    def test_clause_kinds(self):
        clauses = parse_query("host:API.Example.com path:login free like:app/3")
        assert ("term", "host:api.example.com") in clauses
        assert ("term", "path:login") in clauses
        assert ("term", "text:free") in clauses
        assert ("like", "app", 3) in clauses

    @pytest.mark.parametrize("bad", ["", "  ", "host:", "like:app", "like:/x"])
    def test_malformed_queries_raise(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)

    def test_clauses_and_together(self, index):
        host = synth_genapp(expand_targets([SPEC])[0]).host
        broad = run_search(index, "post")
        narrowed = run_search(index, f"post host:{host}")
        assert narrowed["total"] <= broad["total"]
        assert all(h in broad["hits"] or True for h in narrowed["hits"])
        assert run_search(index, f"host:{host} nosuchtoken")["total"] == 0

    def test_unknown_prefix_is_free_text(self):
        assert parse_query("weird:thing") == [("term", "text:weird:thing")]

    def test_like_scores_sorted_and_reference_excluded(self, index):
        key = sorted(index.docs)[0]
        txn = sorted(int(t) for t in index.docs[key]["txns"])[0]
        result = run_search(index, f"like:{key[:12]}/{txn}")
        scores = [h["score"] for h in result["hits"]]
        assert scores == sorted(scores, reverse=True)
        assert (index.docs[key]["app"], key, txn) not in [
            (h["app"], h["key"], h["txn"]) for h in result["hits"]
        ]

    def test_like_unresolvable_raises(self, index):
        with pytest.raises(QueryError):
            run_search(index, "like:nosuchapp/0")

    def test_search_span_emitted(self, index):
        root = Span("repro")
        run_search(index, "post", span=root)
        span = root.children[0]
        assert span.name == "search:text:post"
        assert span.counters["clauses"] == 1
        assert span.counters["matches"] == span.counters["returned"]


class TestPagination:
    def test_cursor_roundtrip(self):
        parts = ["app", 1.5, "key", 3]
        assert decode_cursor(encode_cursor(parts)) == parts
        assert decode_cursor(None) is None
        assert decode_cursor("!!garbage!!") is None

    def test_full_walk_covers_everything_once(self, index):
        full = run_search(index, "post", limit=500)
        seen, cursor = [], None
        while True:
            page = run_search(index, "post", limit=1, cursor=cursor)
            assert len(page["hits"]) <= 1
            seen.extend(page["hits"])
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert seen == full["hits"]

    def test_paginate_clamps_limit(self):
        items = [{"k": i} for i in range(10)]
        page, cursor = paginate(
            items, limit=-5, cursor=None, sort_key=lambda x: [x["k"]]
        )
        assert len(page) == 1 and cursor is not None

    def test_catalog_paginates_by_app(self, index):
        first = catalog(index, limit=3)
        assert first["total"] == 4 and len(first["apps"]) == 3
        rest = catalog(index, limit=3, cursor=first["next_cursor"])
        names = [e["app"] for e in first["apps"] + rest["apps"]]
        assert names == sorted(names) and len(names) == 4


class TestSummaries:
    def test_new_envelopes_carry_summary(self, store):
        key = store.entries()[0]
        envelope = store.load(key)
        summary = envelope["summary"]
        assert summary["schema"] == 1
        assert summary["hosts"] and summary["transactions"] > 0
        assert summary == report_summary(envelope["report"])

    def test_backfill_recomputes_missing_summary(self, store):
        envelope = dict(store.load(store.entries()[0]))
        stamped = envelope.pop("summary")
        assert envelope_summary(envelope) == stamped
        # foreign summary schema is also recomputed, not trusted
        envelope["summary"] = {"schema": 999, "hosts": ["bogus"]}
        assert envelope_summary(envelope) == stamped

    def test_list_entries_carry_summaries(self, store):
        entries = store.list_entries()
        assert len(entries) == 4
        assert all(e["summary"]["hosts"] for e in entries)
        assert entries == sorted(
            entries, key=lambda e: (e["app"], e["stored_at"], e["key"])
        )
