"""Protocol-evolution analysis (``repro.diff``).

Covers the normaliser/matcher/classifier units, the corpus-wide self-diff
property (every app diffs empty against itself, deterministically, under
both engines), and the generated lineages' ground truth: compatible
drifts stay compatible, the removed-dependency-source lineage reports
exactly the removed edge as breaking, and an obfuscated rebuild diffs
clean through its rename lineage.
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest

from repro.core.extractocol import Extractocol
from repro.core.report import report_to_dict
from repro.corpus import app_keys, build_version
from repro.diff.classify import BREAKING_KINDS, KIND_SEVERITY
from repro.diff.engine import diff_dicts, diff_reports, diff_targets
from repro.diff.match import MATCH_THRESHOLD, match_transactions, similarity
from repro.diff.model import Change, ProtocolDiff, render_markdown
from repro.diff.normal import (
    WILDCARD,
    body_keys,
    parse_uri,
    report_views,
    untokenize,
)
from repro.service import resolve_target


@lru_cache(maxsize=None)
def _corpus_report_dict(key: str) -> dict:
    apk, config, _ = resolve_target(key)
    return report_to_dict(Extractocol(config).analyze(apk))


@lru_cache(maxsize=None)
def _lineage_report(label: str):
    built = build_version(label)
    report = Extractocol(built.config).analyze(built.apk)
    return report, built.renames_from_base


# ---------------------------------------------------------------- units
class TestUntokenize:
    def test_literals_survive(self):
        assert untokenize(r"^https://a\.example\.com/api$") == (
            "https://a.example.com/api"
        )

    def test_wildcards_collapse(self):
        text = untokenize(r"^https://x\.net/item/(.*)$")
        assert text == "https://x.net/item/" + WILDCARD

    def test_adjacent_wildcards_merge(self):
        assert untokenize(r"(.*)[0-9]+") == WILDCARD

    def test_char_class_and_quantifier(self):
        assert untokenize(r"/v[0-9]+/x") == "/v" + WILDCARD + "/x"

    def test_group_with_nesting(self):
        assert untokenize(r"/a/(?:b|(?:c|d))/e") == "/a/" + WILDCARD + "/e"


class TestParseUri:
    def test_segments_and_query(self):
        shape = parse_uri(r"^https://h\.io/api/v1/items\?q=(.*)&page=1$")
        assert shape.scheme == "https"
        assert shape.host == "h.io"
        assert shape.segments == ("api", "v1", "items")
        assert shape.query_keys == ("page", "q")

    def test_opaque_uri(self):
        shape = parse_uri(r"^(.*)$")
        assert shape.is_opaque

    def test_dynamic_segment_kept_as_wildcard(self):
        shape = parse_uri(r"^http://h/a/(.*)/c$")
        assert shape.segments == ("a", WILDCARD, "c")


class TestBodyKeys:
    def test_json_term_keys(self):
        body = "{(id): (t3_1), (dir): (1), (uh): <?str:response:3:json>}"
        assert body_keys(body, "json") == ("dir", "id", "uh")

    def test_query_body_keys(self):
        assert body_keys("user=(.*)&passwd=(.*)", "query") == (
            "passwd", "user",
        )

    def test_empty(self):
        assert body_keys(None, "json") == ()
        assert body_keys("", None) == ()


class TestMatching:
    def _views(self, key: str):
        return report_views(_corpus_report_dict(key))

    def test_self_match_is_total_and_exact(self):
        views = self._views("reddinator")
        result = match_transactions(views, views)
        assert not result.unmatched_old and not result.unmatched_new
        assert all(score == 1.0 for _, _, score in result.pairs)
        assert [(o.txn_id, n.txn_id) for o, n, _ in result.pairs] == [
            (v.txn_id, v.txn_id) for v in views
        ]

    def test_similarity_bounds(self):
        views = self._views("ifixit")
        for a in views[:5]:
            for b in views[:5]:
                s = similarity(a, b)
                assert 0.0 <= s <= 1.0 + 1e-9
            assert similarity(a, a) > MATCH_THRESHOLD

    def test_unrelated_transactions_stay_unmatched(self):
        old = self._views("reddinator")
        new = self._views("twister")
        result = match_transactions(old, new)
        # reddit's JSON API and twister's RPC share nothing above threshold
        assert all(score < 0.9 for _, _, score in result.pairs)


class TestTaxonomy:
    def test_severities_are_closed_set(self):
        assert set(KIND_SEVERITY.values()) <= {
            "breaking", "compatible", "info",
        }

    def test_breaking_kinds_derived(self):
        assert "dependency-removed" in BREAKING_KINDS
        assert "query-key-added" not in BREAKING_KINDS

    def test_change_sorting_puts_breaking_first(self):
        a = Change("query-key-added", "compatible", "query", new="x")
        b = Change("query-key-removed", "breaking", "query", old="y")
        assert sorted([a, b], key=Change.sort_key)[0] is b


# ------------------------------------------------- corpus-wide self-diff
@pytest.mark.parametrize("key", app_keys())
def test_self_diff_is_empty_for_every_corpus_app(key):
    d = _corpus_report_dict(key)
    diff = diff_dicts(d, d)
    assert diff.is_empty, [str(c) for c in diff.all_changes()]
    assert diff.verdict == "identical"
    assert not diff.breaking
    assert diff.matched and not diff.added and not diff.removed
    # deterministic serialisation: two runs, byte-identical JSON
    j1 = json.dumps(diff.to_dict(), sort_keys=True)
    j2 = json.dumps(diff_dicts(d, d).to_dict(), sort_keys=True)
    assert j1 == j2


# ------------------------------------------------------ lineage truth
class TestLineages:
    def _diff(self, old_label: str, new_label: str) -> ProtocolDiff:
        from repro.diff.engine import _relative_renames

        old_report, old_renames = _lineage_report(old_label)
        new_report, new_renames = _lineage_report(new_label)
        return diff_reports(
            old_report, new_report,
            renames=_relative_renames(old_renames, new_renames),
        )

    def test_compatible_drift_is_not_breaking(self):
        diff = self._diff("reddinator@v1", "reddinator@v2")
        assert diff.verdict == "compatible"
        kinds = {c.kind for c in diff.all_changes()}
        assert kinds == {
            "query-key-added", "header-added", "transaction-added",
        }

    def test_removed_dependency_source_is_the_only_breaking_change(self):
        """The acceptance case: reddinator v3 caches the modhash, so the
        login->vote dependency edge disappears — and *only* that edge."""
        diff = self._diff("reddinator@v1", "reddinator@v3")
        assert diff.breaking
        breaking = diff.breaking_changes()
        assert [c.kind for c in breaking] == ["dependency-removed"]
        assert breaking[0].old == "txn3[$.json] -> txn4.body"
        # the save flow (txn3 -> txn5) survives untouched
        assert all(
            "txn5" not in (c.old or "") for c in breaking
        )

    def test_query_key_rename_is_breaking(self):
        diff = self._diff("wallabag@v1", "wallabag@v2")
        assert diff.breaking
        assert {c.kind for c in diff.breaking_changes()} == {
            "query-key-removed",
        }

    def test_pure_addition_is_compatible(self):
        diff = self._diff("twister@v1", "twister@v2")
        assert diff.verdict == "compatible"
        assert len(diff.added) == 1 and not diff.removed

    def test_obfuscated_rebuild_diffs_clean_via_rename_lineage(self):
        diff = self._diff("tzm@v1", "tzm@v2")
        assert diff.is_empty, [str(c) for c in diff.all_changes()]


# ------------------------------------------------- targets, cache, model
class TestDiffTargets:
    def test_lineage_labels_resolve(self):
        diff = diff_targets("wallabag@v1", "wallabag@v2")
        assert diff.breaking

    def test_corpus_key_resolves(self):
        diff = diff_targets("tzm", "tzm")
        assert diff.is_empty

    def test_unknown_target_raises(self):
        with pytest.raises(LookupError):
            diff_targets("no-such-app", "tzm")
        with pytest.raises(LookupError):
            diff_targets("tzm@v9", "tzm")


class TestStoreCache:
    def test_stored_diff_writes_nothing(self, tmp_path):
        """``GET /diff`` recomputes from the two stored reports on every
        call and leaves ``objects/`` holding the reports only."""
        from repro.diff.engine import stored_diff
        from repro.service.store import ResultStore

        store = ResultStore(tmp_path)
        apk, config, _ = resolve_target("tzm")
        report = Extractocol(config).analyze(apk)
        from repro.apk.loader import apk_digest

        key = store.put(apk_digest(apk), config.cache_key(), report)
        first = stored_diff(store, key, key)
        assert first["verdict"] == "identical"
        assert stored_diff(store, key, key) == first
        assert store.entries() == [key]
        assert store.stats()["writes"] == 1

    def test_missing_keys_return_none(self, tmp_path):
        from repro.diff.engine import stored_diff
        from repro.service.store import ResultStore

        store = ResultStore(tmp_path)
        assert stored_diff(store, "nope", "nada") is None

    def test_operand_leased_by_another_owner_is_read_back(
        self, tmp_path, monkeypatch
    ):
        """``diff --store`` takes the result-key lease batch workers and
        daemon jobs take: while another owner holds it, the operand waits
        for that owner's report instead of analysing it again."""
        from repro.apk.loader import apk_digest
        from repro.diff.engine import resolve_diff_target
        from repro.service.store import ResultStore, result_key

        apk, config, _ = resolve_target("tzm")
        report = Extractocol(config).analyze(apk)
        digest = apk_digest(apk)
        key = result_key(digest, config.cache_key())
        store = ResultStore(tmp_path)
        assert store.claim(key, owner="other-daemon")
        claim = ResultStore.claim

        def refused_then_stored(self, name, **kwargs):
            won = claim(self, name, **kwargs)
            if not won and not store.entries():
                # the holder stores its result, then releases
                store.put(digest, config.cache_key(), report)
                store.release(key)
            return won

        def no_analysis(self, apk, **kwargs):
            raise AssertionError("diff analysed a leased operand")

        monkeypatch.setattr(ResultStore, "claim", refused_then_stored)
        monkeypatch.setattr(Extractocol, "analyze", no_analysis)
        got, renames, label = resolve_diff_target("tzm", store=store)
        assert got == report_to_dict(report)
        assert (renames, label) == (None, "tzm")
        assert store.lease_holder(key) is None
        assert (store.hits, store.misses) == (1, 0)

    def test_warm_operand_is_read_once(self, tmp_path, monkeypatch):
        """A stored operand costs one envelope read, one cache hit and no
        analysis."""
        from repro.apk.loader import apk_digest
        from repro.diff.engine import resolve_diff_target
        from repro.service.store import ResultStore

        apk, config, _ = resolve_target("tzm")
        report = Extractocol(config).analyze(apk)
        store = ResultStore(tmp_path)
        key = store.put(apk_digest(apk), config.cache_key(), report)
        load = ResultStore.load
        reads: list[str] = []

        def counted(self, name):
            reads.append(name)
            return load(self, name)

        def no_analysis(self, apk, **kwargs):
            raise AssertionError("diff analysed a stored operand")

        monkeypatch.setattr(ResultStore, "load", counted)
        monkeypatch.setattr(Extractocol, "analyze", no_analysis)
        got, _renames, _label = resolve_diff_target("tzm", store=store)
        assert got == report_to_dict(report)
        assert reads.count(key) == 1
        assert (store.hits, store.misses) == (1, 0)


def _lineage_pairs() -> list[tuple[str, str]]:
    """Every pair of versions of each hand-written lineage, then each
    consecutive pair and v1 -> vN of ``synth:evolution*12@7``'s
    lineages."""
    from repro.corpus import lineages
    from repro.synth import parse_population, synth_lineage

    pairs = []
    for versions in lineages().values():
        labels = [v.label for v in versions]
        pairs += [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    for key in parse_population("synth:evolution*12@7").keys():
        labels = [v.label for v in synth_lineage(key)]
        pairs += list(zip(labels, labels[1:]))
        pairs += [(labels[0], b) for b in labels[2:]]
    return pairs


def test_stored_and_live_reports_diff_alike(tmp_path):
    """``GET /diff`` (:func:`stored_diff`) diffs the two stored report
    dicts as they are; ``diff_reports`` serialises two live reports.  On
    every lineage pair the stored path gives the live path's diff."""
    from repro.apk.loader import apk_digest
    from repro.diff.engine import stored_diff
    from repro.service.store import ResultStore, canonical_json

    store = ResultStore(tmp_path)
    reports, keys = {}, {}
    pairs = _lineage_pairs()
    for label in sorted({label for pair in pairs for label in pair}):
        built = build_version(label)
        reports[label] = Extractocol(built.config).analyze(built.apk)
        keys[label] = store.put(apk_digest(built.apk),
                                built.config.cache_key(), reports[label])
    verdicts = set()
    for old, new in pairs:
        live = diff_reports(reports[old], reports[new]).to_dict()
        stored = stored_diff(store, keys[old], keys[new])
        assert canonical_json(stored) == canonical_json(live), (old, new)
        verdicts.add(live["verdict"])
    assert verdicts == {"identical", "compatible", "breaking"}


class TestModel:
    def test_markdown_rendering_mentions_verdict_and_edge(self):
        old_report, _ = _lineage_report("reddinator@v1")
        new_report, _ = _lineage_report("reddinator@v3")
        text = render_markdown(diff_reports(old_report, new_report))
        assert "Verdict: breaking" in text
        assert "txn3[$.json] -> txn4.body" in text

    def test_summary_of_identical_diff(self):
        d = _corpus_report_dict("tzm")
        text = diff_dicts(d, d).summary()
        assert "identical" in text
