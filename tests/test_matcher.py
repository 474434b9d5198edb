"""Tests for signature↔traffic matching and Rk/Rv/Rn byte accounting."""

from __future__ import annotations

import json

import pytest
from fixtures_http import build_mini_reddit
from test_runtime import reddit_network

from repro import Extractocol
from repro.runtime.fuzzing import ManualUiFuzzer
from repro.signature.lang import Const, JsonArray, JsonObject, Unknown, concat
from repro.signature.matcher import (
    ByteAccount,
    account_json,
    account_query_string,
    account_request,
    body_matches,
    match_trace,
    traffic_keywords,
    transaction_matches,
)


class TestEndToEndMatching:
    """§5.1: every statically derived signature matches the real traffic."""

    @pytest.fixture(scope="class")
    def setup(self):
        apk = build_mini_reddit()
        report = Extractocol().analyze(apk)
        fuzz = ManualUiFuzzer().fuzz(build_mini_reddit(), reddit_network())
        return report, fuzz

    def test_every_trace_entry_matched_by_some_signature(self, setup):
        report, fuzz = setup
        for captured in fuzz.trace:
            assert any(
                transaction_matches(
                    t, captured.request.method, captured.request.url,
                    captured.request.body,
                )
                for t in report.transactions
            ), f"no signature matches {captured}"

    def test_match_trace_maps_signatures(self, setup):
        report, fuzz = setup
        mapping = match_trace(report.transactions, fuzz.trace)
        matched = [tid for tid, hits in mapping.items() if hits]
        assert len(matched) == 2


class TestBodyMatching:
    def test_json_keys_subset_matches(self):
        sig = JsonObject(((Const("after"), Unknown("str")),), open_=True)
        body = json.dumps({"after": "x", "extra": 1})
        assert body_matches(sig, body, "json")

    def test_missing_key_fails(self):
        sig = JsonObject(((Const("token"), Unknown("str")),))
        assert not body_matches(sig, json.dumps({"other": 1}), "json")

    def test_none_signature_matches_anything(self):
        assert body_matches(None, None, None)

    def test_regex_body(self):
        sig = concat(Const("user="), Unknown("str"))
        assert body_matches(sig, "user=bob", "query")
        assert not body_matches(sig, "name=bob", "query")


class TestByteAccounting:
    def test_query_string_full_match(self):
        acct = account_query_string({"id", "uh"}, "id=t3_a&uh=hash1")
        rk, rv, rn = acct.fractions()
        assert acct.rn == 0
        assert rk + rv == pytest.approx(1.0)

    def test_query_string_unknown_key_counts_rn(self):
        acct = account_query_string({"id"}, "id=1&zz=unknownvalue")
        assert acct.rn == len("zz") + 1 + len("unknownvalue")

    def test_json_accounting_known_and_unknown(self):
        sig = JsonObject(
            (
                (Const("relay"), Unknown("str")),
                (Const("songs"), JsonArray(elem=JsonObject(((Const("title"), Unknown("str")),), open_=True))),
            ),
            open_=True,
        )
        body = json.dumps(
            {
                "relay": "http://cdn.test/x",
                "songs": [{"title": "a", "album": "zz"}],
                "listeners": "999",
            }
        )
        acct = account_json(sig, body)
        assert acct.rk > 0
        assert acct.rv > 0
        assert acct.rn > 0  # album + listeners unobserved by the app

    def test_account_request_combines_query_and_body(self):
        apk = build_mini_reddit()
        from repro import Extractocol

        report = Extractocol().analyze(apk)
        txn = next(
            t for t in report.transactions
            if "doInBackground" in t.root
        )
        acct = account_request(
            txn, "http://www.reddit.com/r/pics.json?limit=25", None
        )
        rk, rv, rn = acct.fractions()
        assert rn == 0.0
        assert rk > 0


class TestTrafficKeywords:
    def test_query_and_json(self):
        req_kws, resp_kws = traffic_keywords(
            ("GET", "http://a.test/x?user=1&sort=top", None),
            response_body=json.dumps({"after": "x", "children": [{"title": "t"}]}),
        )
        assert req_kws == {"user", "sort"}
        assert resp_kws == {"after", "children", "title"}

    def test_xml_body(self):
        _, resp = traffic_keywords(
            ("GET", "http://a.test/x", None),
            response_body='<weather city="Seoul"><temp unit="C">21</temp></weather>',
        )
        assert {"weather", "temp", "city", "unit"} <= resp

    def test_form_body(self):
        req, _ = traffic_keywords(
            ("POST", "http://a.test/login", "user=bob&passwd=x"),
        )
        assert req == {"user", "passwd"}
