"""Taint provenance: `repro explain` must walk a request field back to the
concrete statement chain that produced it.

Covers the ISSUE acceptance bar: a simple corpus app (blippex — the
corpus has no literal "simple" key) and radioreddit with exact known
chains, plus every closed-source corpus app resolving at least one
request field to a non-empty chain ending at the demarcation point.
"""

from __future__ import annotations

import json

import pytest

from repro import AnalysisConfig, Extractocol
from repro.corpus import app_keys, get_spec
from repro.ir.statements import StmtRef
from repro.obs.provenance import FieldProvenance, ProvenanceStep, explain


def _spec_config(key: str) -> tuple[object, AnalysisConfig]:
    spec = get_spec(key)
    return spec.build_apk(), AnalysisConfig(
        async_heuristic=(spec.kind == "closed"),
        scope_prefixes=spec.scope_prefixes,
    )


class TestSimpleApp:
    def test_blippex_uri_provenance(self):
        apk, config = _spec_config("blippex")
        result = explain(apk, config, request="0", field="uri")
        assert isinstance(result, FieldProvenance)
        assert result.app == "blippex"
        assert result.field == "uri"
        assert result.steps, "uri must trace back to a producing statement"
        assert all(isinstance(s, ProvenanceStep) for s in result.steps)
        # the chain starts at a concrete string constant and ends at the DP
        assert "blippex" in result.steps[0].text
        described = result.describe()
        assert "uri" in described

    def test_unknown_request_raises_lookup_error(self):
        apk, config = _spec_config("blippex")
        with pytest.raises(LookupError):
            explain(apk, config, request="999", field="uri")

    def test_unknown_field_raises_lookup_error(self):
        apk, config = _spec_config("blippex")
        with pytest.raises(LookupError):
            explain(apk, config, request="0", field="no-such-field")


class TestRadioreddit:
    def test_known_chain_fetch_status(self):
        """The paper's running example: the GET uri is assembled in
        MainActivity.fetchStatus via StringBuilder → toString → HttpGet
        ctor → HttpClient.execute (the demarcation point)."""
        apk, config = _spec_config("radioreddit")
        result = explain(apk, config, request="1", field="uri")
        assert len(result.steps) == 4
        assert all("fetchStatus" in s.method_id for s in result.steps)
        texts = [s.text for s in result.steps]
        assert "'http://www.radioreddit.com/'" in texts[0]
        assert "StringBuilder" in texts[0]
        assert "toString" in texts[1]
        assert "HttpGet: void <init>" in texts[2]
        assert "HttpClient" in texts[3] and "execute" in texts[3]
        # indices are increasing within the single producing method
        indices = [s.index for s in result.steps]
        assert indices == sorted(indices)

    def test_substring_request_selector(self):
        apk, config = _spec_config("radioreddit")
        by_id = explain(apk, config, request="1", field="uri")
        by_sub = explain(apk, config, request="radioreddit", field="uri")
        assert by_sub.txn_id == by_id.txn_id
        assert [s.text for s in by_sub.steps] == [s.text for s in by_id.steps]

    def test_to_dict_is_json_serialisable(self):
        apk, config = _spec_config("radioreddit")
        result = explain(apk, config, request="1", field="uri")
        data = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert data["app"] == "radio reddit"  # the apk's display name
        assert len(data["steps"]) == 4


class TestClosedCorpus:
    @pytest.mark.parametrize("key", app_keys("closed"))
    def test_resolves_a_request_field_to_a_chain(self, key):
        """Acceptance: for every closed-source corpus app at least one
        request field resolves to a concrete statement chain."""
        apk, config = _spec_config(key)
        report = Extractocol(config).analyze(apk)
        txns = list(report.transactions) or list(report.unidentified)
        assert txns, f"{key}: no transactions reconstructed"
        for txn in txns:
            result = explain(apk, config, request=str(txn.txn_id), field="uri")
            if result.steps:
                break
        else:
            pytest.fail(f"{key}: no transaction's uri resolved to a chain")
        # the chain ends at the transaction's demarcation point method
        assert result.steps[-1].method_id
        assert result.value


class TestExplainCli:
    def test_explain_human_output(self, capsys):
        from repro.cli import main

        assert main(["explain", "radioreddit", "1", "uri"]) == 0
        out = capsys.readouterr().out
        assert "radioreddit" in out
        assert "fetchStatus" in out

    def test_explain_json_output(self, capsys):
        from repro.cli import main

        assert main(["explain", "radioreddit", "1", "uri", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["field"] == "uri"
        assert len(data["steps"]) == 4

    def test_explain_bad_request_exits_nonzero(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["explain", "radioreddit", "999", "uri"])


class TestSliceProvenance:
    def test_plain_analysis_carries_the_explain_chain(self):
        """Provenance is part of every slice: a plain analysis, with no
        option set, leaves the parent links ``explain`` walks, from the
        producing literal to a seed of the demarcation point."""
        apk, config = _spec_config("radioreddit")
        steps = explain(apk, config, request="1", field="uri").steps
        engine = Extractocol(config)
        report = engine.analyze(apk)
        [txn] = [t for t in report.transactions if t.txn_id == 1]
        [request] = [
            s.request for s in engine.last_slicing.slices
            if s.dp.site == txn.site
        ]
        chain = [StmtRef(steps[0].method_id, steps[0].index)]
        while request.stmts[chain[-1]] is not None:
            chain.append(request.stmts[chain[-1]])
        assert len(chain) == 4
        assert chain == [StmtRef(s.method_id, s.index) for s in steps]
