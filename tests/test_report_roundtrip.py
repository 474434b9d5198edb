"""Report serialisation: the ``report_to_dict`` form is what the store
keeps and every stored-report reader reads as data, so it must survive
JSON unchanged for every corpus app; its dependency strings parse back
into the edges they render."""

from __future__ import annotations

import json

import pytest

from repro.core.report import AnalysisReport, report_to_dict
from repro.corpus import app_keys
from repro.deps.transactions import Dependency
from repro.service.jobs import resolve_target


def _fresh_report(key: str):
    from repro import Extractocol

    apk, config, _ = resolve_target(key)
    return Extractocol(config).analyze(apk)


@pytest.mark.parametrize("key", app_keys())
def test_roundtrip_every_corpus_app(key):
    d1 = report_to_dict(_fresh_report(key))
    # through real JSON, as the store and the API do
    d2 = json.loads(json.dumps(d1))
    assert d1 == d2
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


class TestDeserializedView:
    """The stored dict read back as data."""

    def test_dependencies_parse_back_to_objects(self):
        report = _fresh_report("radioreddit")
        assert report.dependencies, "radioreddit should have dependencies"
        for dep in report.dependencies:
            assert Dependency.parse(str(dep)) == dep
        stored = report_to_dict(report)
        assert [
            Dependency.parse(d)
            for t in stored["transactions"] for d in t["depends_on"]
        ] == [d for t in report.transactions for d in t.depends_on]

    def test_malformed_dependency_rejected(self):
        with pytest.raises(ValueError):
            Dependency.parse("not a dependency")

    def test_timing_never_serialized(self):
        report = _fresh_report("diode")
        assert report.analysis_seconds > 0
        assert "analysis_seconds" not in report_to_dict(report)

    def test_empty_report_roundtrip(self):
        d = report_to_dict(AnalysisReport(app="empty"))
        assert json.loads(json.dumps(d)) == d
        assert d["transactions"] == d["unidentified"] == []
        assert "lint" not in d
