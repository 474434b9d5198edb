"""End-to-end pipeline tests: Extractocol.analyze on fixture APKs."""

from __future__ import annotations

import pytest
from fixtures_http import CLS, build_mini_reddit

from repro import AnalysisConfig, Extractocol
from repro.apk.obfuscator import obfuscate


class TestAnalyze:
    @pytest.fixture(scope="class")
    def report(self):
        return Extractocol().analyze(build_mini_reddit())

    def test_transactions_found(self, report):
        assert len(report.transactions) == 2
        assert report.demarcation_points == 2

    def test_stats_row(self, report):
        stats = report.stats()
        assert stats.get == 2
        assert stats.post == 0
        assert stats.pairs == 1  # only the first txn's response is parsed

    def test_dependency_edge(self, report):
        assert len(report.dependencies) == 1
        dep = report.dependencies[0]
        assert dep.dst_field == "uri"
        assert dep.src_path.endswith("after")

    def test_slice_fraction_is_positive_fraction(self, report):
        assert 0 < report.slice_fraction <= 1

    def test_summary_renders(self, report):
        text = report.summary()
        assert "transactions: 2" in text

    def test_uri_signatures_match_traffic_shapes(self, report):
        import re

        sigs = report.unique_uri_signatures()
        assert any(
            re.match(s, "http://www.reddit.com/r/pics.json?limit=25") for s in sigs
        )


class TestObfuscationInvariance:
    def test_same_signatures_after_proguard(self):
        """§5.1: 'we obfuscate their APKs using ProGuard and verify that the
        same results hold as non-obfuscated APKs.'"""
        plain = Extractocol().analyze(build_mini_reddit())
        obfuscated = obfuscate(build_mini_reddit()).apk
        obf_report = Extractocol().analyze(obfuscated)
        assert plain.unique_uri_signatures() == obf_report.unique_uri_signatures()
        assert len(plain.transactions) == len(obf_report.transactions)
        assert len(plain.dependencies) == len(obf_report.dependencies)


class TestScoping:
    def test_scope_prefix_filters_foreign_transactions(self):
        report = Extractocol(
            AnalysisConfig(scope_prefixes=("com.example.reddit",))
        ).analyze(build_mini_reddit())
        assert len(report.transactions) == 2
        report2 = Extractocol(
            AnalysisConfig(scope_prefixes=("com.other",))
        ).analyze(build_mini_reddit())
        assert len(report2.transactions) == 0


class TestAblation:
    def test_no_slicing_gives_same_transactions(self):
        with_slicing = Extractocol(AnalysisConfig(use_slicing=True)).analyze(
            build_mini_reddit()
        )
        without = Extractocol(AnalysisConfig(use_slicing=False)).analyze(
            build_mini_reddit()
        )
        assert with_slicing.unique_uri_signatures() == without.unique_uri_signatures()

    def test_single_round_misses_cross_event_dependency(self):
        """With one global round and an adversarial entry-point order —
        loadMore evaluated before parseListing has populated mAfter — the
        dependency tag is absent; a second round recovers it (§3.4:
        'multiple iterations until it does not discover new dependencies')."""
        apk = build_mini_reddit()
        apk.entrypoints.reverse()  # loadMore first
        report1 = Extractocol(AnalysisConfig(rounds=1)).analyze(apk)
        assert len(report1.dependencies) == 0
        apk2 = build_mini_reddit()
        apk2.entrypoints.reverse()
        report2 = Extractocol(AnalysisConfig(rounds=2)).analyze(apk2)
        assert len(report2.dependencies) == 1
