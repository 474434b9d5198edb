"""The content-addressed result store and the config cache key."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro import AnalysisConfig, Extractocol
from repro.apk.loader import apk_digest, load_apk, save_apk
from repro.core.report import report_to_dict
from repro.service import ResultStore, result_key
from repro.service.store import SCHEMA_VERSION, canonical_json


@pytest.fixture(scope="module")
def diode_report():
    from repro.corpus import build_app

    apk = build_app("diode")
    config = AnalysisConfig()
    return apk, config, Extractocol(config).analyze(apk)


class TestCacheKey:
    def test_stable_across_processes(self):
        # a literal, so a refactor that silently changes key derivation
        # (and would orphan every stored entry) fails loudly here
        assert AnalysisConfig().cache_key() == "46d980e323c1c169"

    def test_execution_knobs_do_not_shard_the_cache(self):
        base = AnalysisConfig()
        assert AnalysisConfig(mode="incremental").cache_key() == base.cache_key()

    def test_semantic_fields_do_shard_the_cache(self):
        base = AnalysisConfig()
        for variant in (
            AnalysisConfig(async_heuristic=False),
            AnalysisConfig(rounds=1),
            AnalysisConfig(use_slicing=False),
            AnalysisConfig(scope_prefixes=("com.kayak",)),
            AnalysisConfig(max_async_hops_override=3),
            AnalysisConfig(model_intents=True),
        ):
            assert variant.cache_key() != base.cache_key()

    def test_execution_knobs_do_not_change_the_report(self):
        """The contract the shared cache key rests on: the execution knobs
        produce byte-identical reports."""
        from repro.corpus import build_app

        apk = build_app("radioreddit")
        reports = [
            Extractocol(config).analyze(apk)
            for config in (
                AnalysisConfig(),
                AnalysisConfig(mode="incremental"),
            )
        ]
        texts = {json.dumps(report_to_dict(r), sort_keys=True) for r in reports}
        assert len(texts) == 1


class TestApkDigest:
    def test_digest_stable_across_save_load(self, tmp_path, diode_report):
        apk, _, _ = diode_report
        save_apk(apk, tmp_path / "d.sapk")
        assert apk_digest(load_apk(tmp_path / "d.sapk")) == apk_digest(apk)

    def test_different_apps_different_digests(self):
        from repro.corpus import build_app

        assert apk_digest(build_app("diode")) != apk_digest(build_app("tzm"))


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path, diode_report):
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        digest, ckey = apk_digest(apk), config.cache_key()
        assert store.get(digest, ckey) is None  # cold miss
        key = store.put(digest, ckey, report)
        assert key == result_key(digest, ckey)
        envelope = store.get(digest, ckey)
        assert envelope["schema"] == SCHEMA_VERSION
        assert envelope["report"] == report_to_dict(report)
        assert envelope["analysis_seconds"] > 0
        assert store.stats() == {
            "hits": 1, "misses": 1, "writes": 1, "manifest_writes": 0,
            "entries": 1, "schema": SCHEMA_VERSION,
        }

    def test_stored_bytes_identical_to_fresh_serialisation(
        self, tmp_path, diode_report
    ):
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        key = store.put(apk_digest(apk), config.cache_key(), report)
        on_disk = json.loads(store.path_for(key).read_text())
        fresh = Extractocol(config).analyze(apk)
        assert canonical_json(on_disk["report"]) == canonical_json(
            report_to_dict(fresh)
        )

    def test_a_report_put_makes_one_durable_write(
        self, tmp_path, diode_report, monkeypatch
    ):
        """The envelope is the only fsynced file of a put: the fleet
        index's pending marker beside it is empty."""
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        fsync = os.fsync
        synced = []

        def counted(fd):
            synced.append(fd)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counted)
        key = store.put(apk_digest(apk), config.cache_key(), report)
        assert len(synced) == 1
        marker = store.root / "index" / "pending" / f"{key}.json"
        assert marker.read_bytes() == b""

    def test_schema_mismatch_is_a_miss(self, tmp_path, diode_report):
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        key = store.put(apk_digest(apk), config.cache_key(), report)
        envelope = json.loads(store.path_for(key).read_text())
        envelope["schema"] = SCHEMA_VERSION + 1
        store.path_for(key).write_text(json.dumps(envelope))
        assert store.get(apk_digest(apk), config.cache_key()) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, diode_report):
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        key = store.put(apk_digest(apk), config.cache_key(), report)
        store.path_for(key).write_text("{ torn write")
        assert store.get(apk_digest(apk), config.cache_key()) is None

    def test_non_object_entry_is_a_miss_and_a_batch_replaces_it(
        self, tmp_path
    ):
        """An entry that parses as JSON but not as an object, or an
        envelope whose ``report`` is not an object, reads as a miss, is
        not listed, and a batch entry over it re-analyses and replaces
        it."""
        from repro.service.jobs import resolve_target
        from repro.service.shard import run_sharded_batch

        apk, config, _ = resolve_target("diode")
        digest, config_key = apk_digest(apk), config.cache_key()
        key = result_key(digest, config_key)
        fresh = report_to_dict(Extractocol(config).analyze(apk))
        bad_entries = [
            "[1, 2]",
            json.dumps({"schema": SCHEMA_VERSION, "report": [1, 2]}),
        ]
        for text in bad_entries:
            store = ResultStore(tmp_path / "store")
            store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
            store.path_for(key).write_text(text)
            if text == "[1, 2]":
                assert store.load(key) is None
            assert store.lookup(key) is None
            assert store.list_entries() == []
            assert store.get(digest, config_key) is None
            assert (store.hits, store.misses) == (0, 1)

            [record] = run_sharded_batch(store.root, ["diode"], workers=1)
            assert (record.status, record.cache_hit) == ("done", False)
            assert record.counters == {"analyses_run": 1}
            assert canonical_json(store.load(key)["report"]) == (
                canonical_json(fresh)
            )

    def test_non_utf8_entry_is_a_miss_and_skipped(
        self, tmp_path, diode_report
    ):
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        good = store.put(apk_digest(apk), config.cache_key(), report)
        bad = result_key("ff" * 32, config.cache_key())
        store.path_for(bad).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(bad).write_bytes(b"\xff\xfe")
        assert store.load(bad) is None
        assert [e["key"] for e in store.list_entries()] == [good]

        store.path_for(good).write_bytes(b"\xff\xfe")
        assert store.get(apk_digest(apk), config.cache_key()) is None
        assert store.list_entries() == []

    def test_reap_releases_stale_leases_only(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.claim("live")
        store.lease_path("torn").write_text("{")
        store.lease_path("expired").write_text(json.dumps(
            {"pid": os.getpid(), "owner": "x", "claimed_unix": 0.0}
        ))
        store.reap()
        assert sorted(p.name for p in store.leases.iterdir()) == [
            "live.lease"
        ]

    def test_non_utf8_lease_has_no_holder(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        path = store.lease_path("k")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\xff\xfe")
        assert store.lease_holder("k") is None

    def test_manifest_is_compact_sorted_json_without_digest(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        manifest = {
            "schema": 1, "app": "a", "config_key": "c",
            "methods": {"m": "f"}, "method_fields": {}, "dps": [],
        }
        key = store.put_manifest(manifest)
        text = store.manifest_path(key).read_text()
        envelope = json.loads(text)
        assert text == json.dumps(
            envelope, sort_keys=True, separators=(",", ":")
        )
        assert "apk_digest" not in envelope
        assert envelope["manifest"] == manifest
        assert store.get_manifest("a", "c") == manifest

    def test_no_temp_file_residue(self, tmp_path, diode_report):
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        store.put(apk_digest(apk), config.cache_key(), report)
        residue = [
            p for p in (tmp_path / "store").rglob("*") if p.suffix == ".tmp"
        ]
        assert residue == []

    def test_list_entries_metadata(self, tmp_path, diode_report):
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        assert store.list_entries() == []
        key = store.put(apk_digest(apk), config.cache_key(), report)
        entries = store.list_entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["key"] == key
        assert entry["app"] == report.app
        assert entry["apk_digest"] == apk_digest(apk)
        assert entry["config_key"] == config.cache_key()
        assert entry["schema"] == SCHEMA_VERSION
        assert entry["transactions"] == len(report.transactions)
        assert entry["stored_at"] > 0

    def test_list_entries_skips_non_report_envelopes(
        self, tmp_path, diode_report
    ):
        """Files :meth:`ResultStore.lookup` rejects stay on disk and out
        of the listing: the ``diff-*`` cache an older store holds, and a
        torn file.  Neither name has a result key's shape, so neither
        counts as an entry.  The report's key comes from the real
        ``apk_digest`` and ``cache_key``, so a key shape the filter
        misses would show here as a missing entry."""
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        store.put(apk_digest(apk), config.cache_key(), report)
        old_diff = store.path_for("diff-cafe")
        old_diff.parent.mkdir(parents=True, exist_ok=True)
        old_diff.write_text(json.dumps({"diff_schema": 1, "diff": {}}))
        (store.objects / "zz").mkdir()
        (store.objects / "zz" / "zz.json").write_text("{ torn")
        assert len(store.entries()) == 1
        assert store.lookup("diff-cafe") is None
        assert [e["key"] for e in store.list_entries()] == [
            f"{apk_digest(apk)}-{config.cache_key()}"
        ]

    def test_first_put_imports_only_what_it_runs(self, tmp_path):
        """A fresh process's first ``put`` loads the summary and the
        pending-marker code, not the diff engine or the query grammar
        that ``repro.diff`` and ``repro.fleetindex`` also export."""
        script = textwrap.dedent("""
            import sys
            from repro.apk.loader import apk_digest
            from repro.core.extractocol import Extractocol
            from repro.service.jobs import resolve_target
            from repro.service.store import ResultStore

            apk, config, _ = resolve_target("diode")
            report = Extractocol(config).analyze(apk)
            store = ResultStore(sys.argv[1])
            store.put(apk_digest(apk), config.cache_key(), report)
            print(" ".join(sorted(sys.modules)))
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            capture_output=True, text=True, timeout=120, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        loaded = set(done.stdout.split())
        assert {"repro.fleetindex.docs", "repro.fleetindex.index"} <= loaded
        assert not loaded & {
            "repro.diff.classify", "repro.diff.engine", "repro.diff.match",
            "repro.diff.model", "repro.fleetindex.query",
        }

    def test_stats_scans_objects_outside_the_lock(
        self, tmp_path, diode_report, monkeypatch
    ):
        """The ``entries`` scan runs with ``_lock`` free, so a concurrent
        ``record`` or ``put`` never waits for it."""
        apk, config, report = diode_report
        store = ResultStore(tmp_path / "store")
        store.put(apk_digest(apk), config.cache_key(), report)
        entries = store.entries
        lock_free = []

        def probed():
            free = store._lock.acquire(blocking=False)
            if free:
                store._lock.release()
            lock_free.append(free)
            return entries()

        monkeypatch.setattr(store, "entries", probed)
        assert store.stats()["entries"] == 1
        assert lock_free == [True]
