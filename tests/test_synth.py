"""repro.synth: grid compilation, determinism, ground-truth soundness.

The three contracts of the synthesized corpus:

1. **Determinism** — a ``(families, scale, seed)`` triple fully determines
   the population: byte-identical ``.sapk`` bundles across fresh compiles
   and byte-identical analysis reports serial vs the process engine;
   different seeds yield distinct populations.
2. **Soundness** — every synthesized app analyzes without error, each
   discovery method's yield exactly matches the generated
   :class:`~repro.corpus.base.GroundTruth`, lineage mutations diff to
   their known drift class, and the population is lint-clean at
   ``lint_level=error``.
3. **Addressing** — keys and population specs are self-describing: any
   process can rebuild any app from its key alone, and malformed keys or
   specs fail loudly.
"""

from __future__ import annotations

import json

import pytest

from repro.corpus import build_version, get_spec
from repro.corpus.lineage import lineage
from repro.synth import (
    FAMILIES,
    app_key,
    expand_targets,
    family_keys,
    get_family,
    grid_point,
    normalize_coords,
    parse_app_key,
    parse_population,
    population_manifest,
    synth_genapp,
    synth_lineage,
    synth_spec,
)

SMOKE_SPEC = "synth:all*21@3"


# ----------------------------------------------------------- addressing
class TestKeys:
    def test_key_roundtrip(self):
        key = app_key("transports", 7, 41)
        assert key == "syn-transports-s7-0041"
        assert parse_app_key(key) == ("transports", 7, 41)

    def test_malformed_keys_raise(self):
        for bad in ("syn-transports-0041", "syn-nofamily-s7-0001",
                    "syn--s7-0001", "transports-s7-0001", "syn-mega-sx-01"):
            with pytest.raises(KeyError):
                parse_app_key(bad)

    def test_get_spec_routes_synth_keys(self):
        spec = get_spec("syn-mega-s7-0002")
        assert spec.key == "syn-mega-s7-0002"
        assert spec.truth.count() > 0

    def test_population_spec_roundtrip(self):
        pop = parse_population("synth:transports,mega*10@7")
        assert pop.families == ("transports", "mega")
        assert pop.scale == 10 and pop.seed == 7
        assert pop.spec == "synth:transports,mega*10@7"
        assert parse_population(pop.spec) == pop

    def test_population_all_and_default_seed(self):
        pop = parse_population("synth:all*14")
        assert pop.families == tuple(family_keys())
        assert pop.seed == 0
        assert pop.spec == "synth:all*14@0"

    def test_population_counts_front_load_remainder(self):
        pop = parse_population("synth:all*10@0")
        counts = pop.counts()
        assert sum(counts.values()) == 10
        sizes = list(counts.values())
        # 7 families, 10 apps: first three get 2, the rest 1
        assert sizes == [2, 2, 2, 1, 1, 1, 1]
        assert len(pop.keys()) == 10

    def test_malformed_population_specs_raise(self):
        for bad in ("synth:all", "synth:*10", "synth:all*0@1",
                    "synth:all*ten", "all*10@1", "synth:ghost*10"):
            with pytest.raises((ValueError, KeyError)):
                parse_population(bad)

    def test_expand_targets_mixes_specs_and_keys(self):
        out = expand_targets(["diode", "synth:mega*2@5", "ted"])
        assert out == ["diode", "syn-mega-s5-0000", "syn-mega-s5-0001", "ted"]


# ------------------------------------------------------------- the grid
class TestGrid:
    def test_scale_at_grid_size_covers_every_cell(self):
        family = get_family("mega")
        points = {
            tuple(sorted(grid_point(family, 5, i).items()))
            for i in range(family.grid_size)
        }
        assert len(points) == family.grid_size

    def test_seed_rotates_but_preserves_coverage(self):
        family = get_family("hazards")
        for seed in (0, 1, 99):
            points = [grid_point(family, seed, i)
                      for i in range(family.grid_size)]
            assert len({tuple(sorted(p.items())) for p in points}) \
                == family.grid_size

    def test_grid_sizes(self):
        assert get_family("transports").grid_size == 144
        assert get_family("mega").grid_size == 9
        for family in FAMILIES.values():
            assert family.grid_size >= 9

    def test_normalize_constraints(self):
        for key in parse_population("synth:all*70@11").keys():
            gen = synth_genapp(key)
            for ep in gen.endpoints:
                if ep.body:
                    assert ep.method in ("POST", "PUT"), (key, ep.name)
                if gen.transport == "volley" and not ep.via_intent:
                    assert ep.method in ("GET", "POST")
                    assert ep.body_format in (None, "json")
                if gen.transport == "urlconn":
                    assert ep.body_format != "form"
                if ep.via_intent:
                    # the intent emitter carries none of these shapes;
                    # truth computed from them would lie
                    assert not ep.query and not ep.body and not ep.reads

    def test_volley_and_intent_apps_are_closed(self):
        for key in parse_population("synth:all*35@2").keys():
            gen = synth_genapp(key)
            has_intent = any(ep.via_intent for ep in gen.endpoints)
            expect = "closed" if (gen.transport == "volley" or has_intent) \
                else "open"
            assert gen.kind == expect, key


# --------------------------------------------------------- determinism
class TestDeterminism:
    def test_same_seed_byte_identical_bundles(self):
        from repro.apk.loader import bundle_contents

        keys = parse_population(SMOKE_SPEC).keys()
        first = {}
        for key in keys:
            first[key] = bundle_contents(synth_spec(key).build_apk())
        synth_spec.cache_clear()
        for key in keys:
            again = bundle_contents(synth_spec(key).build_apk())
            assert again == first[key], key

    def test_manifest_digest_stable_and_seed_sensitive(self):
        m7a = population_manifest(parse_population("synth:all*14@7"))
        m7b = population_manifest(parse_population("synth:all*14@7"))
        m8 = population_manifest(parse_population("synth:all*14@8"))
        assert m7a["digest"] == m7b["digest"]
        assert m7a["digest"] != m8["digest"]

    def test_different_seeds_distinct_populations(self):
        from repro.apk.loader import apk_digest

        d3 = {apk_digest(synth_spec(k).build_apk())
              for k in parse_population("synth:all*14@3").keys()}
        d4 = {apk_digest(synth_spec(k).build_apk())
              for k in parse_population("synth:all*14@4").keys()}
        assert d3 != d4

    def test_serial_vs_process_reports_identical(self, tmp_path):
        """The batch engine in-process (one worker) and sharded across two
        worker processes must store byte-identical report payloads for a
        synthesized population."""
        from repro.service.store import ResultStore
        from repro.service.shard import expand_batch_targets, run_sharded_batch

        targets = expand_batch_targets(["synth:transports,mega*6@7"])
        payloads = {}
        for workers in (1, 2):
            store = ResultStore(tmp_path / f"w{workers}")
            records = run_sharded_batch(store.root, targets, workers=workers)
            assert all(r.status == "done" for r in records)
            payloads[workers] = {
                r.target: json.dumps(
                    store.load(r.result_key)["report"], sort_keys=True
                )
                for r in records
            }
        assert payloads[1] == payloads[2]


# ----------------------------------------------- ground-truth soundness
class TestSoundness:
    @pytest.fixture(scope="class")
    def scores(self):
        from repro.evalx.syntheval import score_population

        return score_population(SMOKE_SPEC)

    def test_every_family_represented(self, scores):
        assert sorted(s.family for s in scores) == sorted(family_keys())

    def test_static_analysis_matches_truth(self, scores):
        for fam in scores:
            assert fam.static_ok == len(fam.apps), [
                (a.key, a.static_found, a.static_expected)
                for a in fam.apps if not a.static_ok
            ]

    def test_fuzzing_matches_truth(self, scores):
        for fam in scores:
            assert fam.manual_ok == len(fam.apps)
            assert fam.auto_ok == len(fam.apps)

    def test_drift_verdicts_match_truth(self, scores):
        evolution = next(s for s in scores if s.family == "evolution")
        assert evolution.drift_pairs == len(evolution.apps)
        assert evolution.drift_ok == evolution.drift_pairs

    def test_population_lint_clean_at_error_level(self):
        from repro.core.config import AnalysisConfig
        from repro.core.extractocol import Extractocol

        for key in parse_population(SMOKE_SPEC).keys():
            spec = synth_spec(key)
            config = AnalysisConfig(
                async_heuristic=(spec.kind == "closed"),
                lint_level="error",
            )
            Extractocol(config).analyze(spec.build_apk())  # must not raise


# -------------------------------------------------------------- lineage
class TestLineage:
    def test_every_app_has_v1(self):
        versions = synth_lineage("syn-transports-s7-0000")
        assert [v.version for v in versions] == [1]

    def test_evolution_apps_ship_v2_with_expectations(self):
        key = next(
            k for k in parse_population("synth:evolution*5@7").keys()
            if "cut_dependency" in synth_lineage(k)[-1].description
        )
        versions = synth_lineage(key)
        assert [v.version for v in versions] == [1, 2]
        assert versions[1].expect_breaking
        assert versions[1].expected_breaking_kinds == ("dependency-removed",)

    def test_breaking_mutation_diffs_breaking(self):
        from repro.diff.engine import diff_targets

        key = next(
            k for k in parse_population("synth:evolution*5@7").keys()
            if "rename_query_key" in synth_lineage(k)[-1].description
        )
        diff = diff_targets(f"{key}@v1", f"{key}@v2")
        assert diff.verdict == "breaking"
        assert {c.kind for c in diff.breaking_changes()} \
            == {"query-key-removed"}

    def test_obfuscated_rebuild_diffs_identical(self):
        from repro.diff.engine import diff_targets

        key = next(
            k for k in parse_population("synth:evolution*5@7").keys()
            if "obfuscate_rebuild" in synth_lineage(k)[-1].description
        )
        diff = diff_targets(f"{key}@v1", f"{key}@v2")
        assert diff.verdict == "identical"

    def test_build_version_routes_synth_labels(self):
        built = build_version("syn-mega-s7-0001@v1")
        assert built.apk.program.classes

    def test_lineage_routes_synth_families(self):
        assert [v.version for v in lineage("syn-mega-s7-0001")] == [1]

    def test_unknown_version_raises(self):
        with pytest.raises(LookupError):
            build_version("syn-transports-s7-0000@v9")


# ------------------------------------------------------------- manifest
class TestManifest:
    def test_manifest_totals_consistent(self):
        pop = parse_population("synth:all*14@7")
        manifest = population_manifest(pop)
        assert manifest["totals"]["apps"] == 14
        assert manifest["totals"]["endpoints"] \
            == sum(a["endpoints"] for a in manifest["apps"])
        assert manifest["totals"]["truth_endpoints"] \
            == sum(a["truth"]["total"] for a in manifest["apps"])
        assert manifest["spec"] == "synth:all*14@7"
        # manifests are JSON round-trippable (they back --json and CI)
        assert json.loads(json.dumps(manifest)) == manifest

    def test_truth_visibility_partition(self):
        manifest = population_manifest(parse_population("synth:all*21@7"))
        for app in manifest["apps"]:
            truth = app["truth"]
            assert truth["static"] <= truth["total"]
            assert truth["manual"] <= truth["total"]
            assert truth["auto"] <= truth["manual"]
