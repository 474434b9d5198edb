"""Incremental re-analysis: manifest-driven slice reuse across version
lineages — byte-identity with cold runs, the corpus-level reuse floor,
RenameMap-composed reuse for obfuscated re-releases, hierarchy-sensitive
fingerprints, the pinned fingerprint recipe, one fingerprint pass per
analysis, and the cache-poisoning guard."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cfg.callgraph import CallGraph
from repro.core.extractocol import Extractocol
from repro.core.report import report_to_dict
from repro.corpus.lineage import build_version
from repro.diff.engine import _relative_renames
from repro.incr.manifest import MANIFEST_SCHEMA
from repro.incr.reuse import fingerprints_in_base_namespace
from repro.ir.builder import ProgramBuilder
from repro.ir.fingerprint import fingerprint_program
from repro.service.store import ResultStore, manifest_key
from repro.synth import parse_population

#: every non-base corpus lineage version, warmed from its predecessor
LINEAGE_PAIRS = [
    ("reddinator@v1", "reddinator@v2"),
    ("reddinator@v2", "reddinator@v3"),
    ("wallabag@v1", "wallabag@v2"),
    ("twister@v1", "twister@v2"),
    ("tzm@v1", "tzm@v2"),
]


def warm_pair(store_root, prev_label: str, label: str):
    """Analyze ``prev_label`` full-with-store, then ``label`` both cold and
    warm-incremental; returns (cold report, warm report, the manifest the
    warm run left)."""
    store = ResultStore(store_root)
    prev = build_version(prev_label)
    Extractocol(prev.config, store=store).analyze(prev.apk)

    cur = build_version(label)
    cold = Extractocol(cur.config).analyze(cur.apk)

    warm_v = build_version(label)
    warm_v.config.mode = "incremental"
    renames = _relative_renames(
        prev.renames_from_base, warm_v.renames_from_base
    )
    engine = Extractocol(warm_v.config, store=store)
    warm = engine.analyze(warm_v.apk, renames=renames)
    return cold, warm, engine.last_manifest


@pytest.fixture(scope="module")
def lineage_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("incr-stores")
    out = {}
    for i, (prev_label, label) in enumerate(LINEAGE_PAIRS):
        out[label] = warm_pair(root / str(i), prev_label, label)
    return out


class TestLineageReuse:
    @pytest.mark.parametrize("label", [p[1] for p in LINEAGE_PAIRS])
    def test_warm_report_byte_identical_to_cold(self, lineage_runs, label):
        cold, warm, _ = lineage_runs[label]
        assert report_to_dict(warm) == report_to_dict(cold)

    @pytest.mark.parametrize("label", [p[1] for p in LINEAGE_PAIRS])
    def test_counters_present_and_consistent(self, lineage_runs, label):
        _, warm, _ = lineage_runs[label]
        counters = warm.phase_stats.incremental
        assert counters is not None
        assert set(counters) == {"reused", "reanalyzed", "dirty_methods"}
        assert (
            counters["reused"] + counters["reanalyzed"]
            == warm.demarcation_points
        )

    def test_corpus_reuse_floor(self, lineage_runs):
        """Across the five lineage versions, at least half of all DP
        slices replay from cache.  (Per-version floors are impossible:
        wallabag has exactly one endpoint and its v2 rewrites it, so its
        lone slice is legitimately dirty.)"""
        reused = analyzed = 0
        for _, warm, _ in lineage_runs.values():
            counters = warm.phase_stats.incremental
            reused += counters["reused"]
            analyzed += counters["reused"] + counters["reanalyzed"]
        assert analyzed > 0
        assert reused / analyzed >= 0.5, (reused, analyzed)

    def test_compatible_drift_reuses_untouched_endpoints(self, lineage_runs):
        for label in ("reddinator@v2", "reddinator@v3", "twister@v2"):
            counters = lineage_runs[label][1].phase_stats.incremental
            assert counters["reused"] > 0, label
            assert counters["reanalyzed"] > 0, label  # the drift itself

    def test_obfuscated_rerelease_reuses_everything(self, lineage_runs):
        """tzm v2 renames every identifier but changes no behavior: with
        the RenameMap composed in, every fingerprint matches in the base
        namespace and every slice replays."""
        counters = lineage_runs["tzm@v2"][1].phase_stats.incremental
        assert counters["reanalyzed"] == 0
        assert counters["reused"] > 0
        assert counters["dirty_methods"] == 0

    @pytest.mark.parametrize("label", [p[1] for p in LINEAGE_PAIRS])
    def test_warm_manifest_equals_full_mode_manifest(
        self, lineage_runs, label, tmp_path
    ):
        """The manifest a warm run leaves — built from the reuse plan's
        fingerprints when there are no renames — is the one a full-mode
        run writes into a fresh store."""
        built = build_version(label)
        store = ResultStore(tmp_path)
        Extractocol(built.config, store=store).analyze(built.apk)
        full = store.get_manifest(built.apk.name, built.config.cache_key())
        assert full is not None
        assert lineage_runs[label][2] == full


class TestFingerprintOnce:
    """A store-connected analysis fingerprints the program once: the reuse
    plan's map goes into the manifest.  Only a renamed release needs a
    second pass, for its base-namespace copy."""

    @staticmethod
    def _count_calls(monkeypatch) -> list:
        import repro.ir.fingerprint as fp

        calls = []
        real = fp.fingerprint_program

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(fp, "fingerprint_program", counting)
        return calls

    @staticmethod
    def _warm(store, prev_label: str, label: str):
        """(the warm release's program, its incremental report)"""
        prev = build_version(prev_label)
        cur = build_version(label)
        cur.config.mode = "incremental"
        renames = _relative_renames(
            prev.renames_from_base, cur.renames_from_base
        )
        report = Extractocol(cur.config, store=store).analyze(
            cur.apk, renames=renames
        )
        return cur.apk.program, report

    def test_full_mode(self, tmp_path, monkeypatch):
        calls = self._count_calls(monkeypatch)
        v1 = build_version("reddinator@v1")
        Extractocol(v1.config).analyze(v1.apk)
        assert calls == []  # no store, no manifest, no fingerprints
        Extractocol(v1.config, store=ResultStore(tmp_path)).analyze(v1.apk)
        assert len(calls) == 1

    def test_non_renamed_warm_run(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        v1 = build_version("reddinator@v1")
        Extractocol(v1.config, store=store).analyze(v1.apk)
        calls = self._count_calls(monkeypatch)
        program, warm = self._warm(store, "reddinator@v1", "reddinator@v2")
        assert warm.phase_stats.incremental["reused"] > 0
        assert len(calls) == 1
        assert calls[0] is program

    def test_renamed_warm_run(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        v1 = build_version("tzm@v1")
        Extractocol(v1.config, store=store).analyze(v1.apk)
        calls = self._count_calls(monkeypatch)
        program, warm = self._warm(store, "tzm@v1", "tzm@v2")
        assert warm.phase_stats.incremental["dirty_methods"] == 0
        # the base-namespace copy for the plan, then the live program for
        # the manifest
        assert len(calls) == 2
        assert calls[0] is not program
        assert calls[1] is program

    def test_manifest_carries_only_what_the_planner_reads(self, tmp_path):
        v1 = build_version("reddinator@v1")
        engine = Extractocol(v1.config, store=ResultStore(tmp_path))
        engine.analyze(v1.apk)
        assert set(engine.last_manifest) == {
            "schema", "app", "config_key", "methods", "method_fields", "dps",
        }

    def test_slice_dicts_carry_only_what_the_planner_reads(self, tmp_path):
        v1 = build_version("reddinator@v1")
        engine = Extractocol(v1.config, store=ResultStore(tmp_path))
        engine.analyze(v1.apk)
        assert engine.last_manifest["dps"]
        for entry in engine.last_manifest["dps"]:
            for part in ("request", "response"):
                assert set(entry[part]) == {
                    "direction", "stmts", "call_edges", "fields", "missed",
                    "visited", "stats",
                }


#: sha256 of the sorted compact JSON of ``{label: fingerprint_program(...)}``
#: over the four corpus lineage bases and the v1s of synth:evolution*45@7,
#: each fingerprinted after its setup passes and demarcation scan
FINGERPRINT_GOLDEN = (
    "1d72e9cf8826d8746f3828306e43d4af324fb33427bee266ac4948ececc2160f"
)


class TestFingerprintRecipe:
    def test_recipe_is_pinned(self):
        labels = [
            f"{app}@v1" for app in ("reddinator", "wallabag", "twister", "tzm")
        ] + [
            f"{key}@v1"
            for key in parse_population("synth:evolution*45@7").keys()
        ]
        data = {}
        for label in labels:
            built = build_version(label)
            data[label] = fingerprints_in_base_namespace(
                built.apk, built.config
            )
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        message = (
            "a fingerprint recipe change must bump MANIFEST_SCHEMA and "
            "FINGERPRINT_GOLDEN together, so stored manifests are never "
            "diffed against fingerprints made by a different recipe"
        )
        assert MANIFEST_SCHEMA == 1, message
        assert digest == FINGERPRINT_GOLDEN, message


class TestSelfWarm:
    def test_unchanged_app_reuses_every_slice(self, tmp_path):
        store = ResultStore(tmp_path)
        v1 = build_version("reddinator@v1")
        cold = Extractocol(v1.config, store=store).analyze(v1.apk)

        again = build_version("reddinator@v1")
        again.config.mode = "incremental"
        warm = Extractocol(again.config, store=store).analyze(again.apk)
        counters = warm.phase_stats.incremental
        assert counters["dirty_methods"] == 0
        assert counters["reanalyzed"] == 0
        assert counters["reused"] == cold.demarcation_points > 0
        assert report_to_dict(warm) == report_to_dict(cold)

    def test_cold_incremental_run_has_zero_reuse(self, tmp_path):
        """mode=incremental with an empty store degrades to a full run."""
        store = ResultStore(tmp_path)
        v1 = build_version("reddinator@v1")
        v1.config.mode = "incremental"
        warm = Extractocol(v1.config, store=store).analyze(v1.apk)
        counters = warm.phase_stats.incremental
        assert counters["reused"] == 0
        assert counters["reanalyzed"] == warm.demarcation_points

        cold = Extractocol(build_version("reddinator@v1").config).analyze(
            build_version("reddinator@v1").apk
        )
        assert report_to_dict(warm) == report_to_dict(cold)


class TestHierarchyDirtying:
    """A superclass change dirties every method of every subclass, even
    when no subclass body changed — the hierarchy slice is a fingerprint
    input."""

    @staticmethod
    def _program(superclass: str):
        pb = ProgramBuilder()
        pb.class_("app.Lib")
        pb.class_("app.OtherLib")
        pb.class_("app.Base", superclass=superclass)
        sub = pb.class_("app.Sub", superclass="app.Base")
        m = sub.method("go", static=False)
        m.ret_void()
        other = pb.class_("app.Unrelated")
        u = other.method("stay", static=False)
        u.ret_void()
        return pb.build()

    def test_superclass_change_dirties_subclass_methods(self):
        before = self._program("app.Lib")
        after = self._program("app.OtherLib")
        fp_before = fingerprint_program(before, CallGraph(before))
        fp_after = fingerprint_program(after, CallGraph(after))
        sub = "<app.Sub: void go()>"
        unrelated = "<app.Unrelated: void stay()>"
        assert fp_before[sub] != fp_after[sub]
        assert fp_before[unrelated] == fp_after[unrelated]


class TestCachePoisoning:
    """A manifest written under a different schema or config hash, missing
    a key the planner reads, or not readable at all must be invisible — the
    engine falls back to full analysis, never stale reuse or a crash."""

    @staticmethod
    def _seed_store(tmp_path):
        store = ResultStore(tmp_path)
        v1 = build_version("reddinator@v1")
        Extractocol(v1.config, store=store).analyze(v1.apk)
        app, key = v1.apk.name, v1.config.cache_key()
        assert store.get_manifest(app, key) is not None
        return store, app, key

    @staticmethod
    def _poison(store, app, key, **changes):
        path = store.manifest_path(manifest_key(app, key))
        envelope = json.loads(path.read_text())
        envelope["manifest"].update(changes)
        path.write_text(json.dumps(envelope))

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store, app, key = self._seed_store(tmp_path)
        self._poison(store, app, key, schema=MANIFEST_SCHEMA + 1)
        assert store.get_manifest(app, key) is None

    def test_config_hash_mismatch_is_a_miss(self, tmp_path):
        store, app, key = self._seed_store(tmp_path)
        self._poison(store, app, key, config_key="0" * 16)
        assert store.get_manifest(app, key) is None

    @staticmethod
    def _assert_warm_run_is_full(store):
        v2 = build_version("reddinator@v2")
        v2.config.mode = "incremental"
        warm = Extractocol(v2.config, store=store).analyze(v2.apk)
        counters = warm.phase_stats.incremental
        assert counters["reused"] == 0
        assert counters["reanalyzed"] == warm.demarcation_points

        cold = Extractocol(build_version("reddinator@v2").config).analyze(
            build_version("reddinator@v2").apk
        )
        assert report_to_dict(warm) == report_to_dict(cold)

    def test_poisoned_manifest_forces_full_reanalysis(self, tmp_path):
        store, app, key = self._seed_store(tmp_path)
        self._poison(store, app, key, schema=MANIFEST_SCHEMA + 1)
        self._assert_warm_run_is_full(store)

    @pytest.mark.parametrize("field", ["methods", "method_fields", "dps"])
    def test_missing_planner_key_is_a_miss(self, tmp_path, field):
        store, app, key = self._seed_store(tmp_path)
        path = store.manifest_path(manifest_key(app, key))
        envelope = json.loads(path.read_text())
        del envelope["manifest"][field]
        path.write_text(json.dumps(envelope))
        assert store.get_manifest(app, key) is None
        self._assert_warm_run_is_full(store)

    @pytest.mark.parametrize(
        "field,value",
        [("methods", []), ("method_fields", None), ("dps", {})],
    )
    def test_ill_typed_planner_key_is_a_miss(self, tmp_path, field, value):
        store, app, key = self._seed_store(tmp_path)
        self._poison(store, app, key, **{field: value})
        assert store.get_manifest(app, key) is None

    def test_manifest_with_dropped_slice_keys_still_replays(self, tmp_path):
        """Manifests written before slices stopped recording
        ``tainted_locals`` and ``origin_params`` carry those keys in every
        slice dict; replay ignores them."""
        store, app, key = self._seed_store(tmp_path)
        path = store.manifest_path(manifest_key(app, key))
        envelope = json.loads(path.read_text())
        for entry in envelope["manifest"]["dps"]:
            for part in ("request", "response"):
                sl = entry[part]
                sl["tainted_locals"] = [
                    [m, "$r0", "java.lang.String"] for m in sl["visited"]
                ]
                sl["origin_params"] = [[m, 0] for m in sl["visited"]]
        path.write_text(json.dumps(envelope))
        v2 = build_version("reddinator@v2")
        v2.config.mode = "incremental"
        warm = Extractocol(v2.config, store=store).analyze(v2.apk)
        assert warm.phase_stats.incremental["reused"] > 0
        cold = build_version("reddinator@v2")
        assert report_to_dict(warm) == report_to_dict(
            Extractocol(cold.config).analyze(cold.apk)
        )

    def test_non_utf8_manifest_is_a_miss(self, tmp_path):
        store, app, key = self._seed_store(tmp_path)
        store.manifest_path(manifest_key(app, key)).write_bytes(b"\xff\xfe")
        assert store.get_manifest(app, key) is None
        self._assert_warm_run_is_full(store)

    def test_semantic_config_change_misses_the_manifest(self, tmp_path):
        """A different semantic config has a different cache key — the old
        manifest is simply never consulted."""
        store, app, key = self._seed_store(tmp_path)
        v1 = build_version("reddinator@v1")
        v1.config.rounds += 1
        assert v1.config.cache_key() != key
        assert store.get_manifest(app, v1.config.cache_key()) is None
