"""Evaluation-harness tests: the tables/figures regenerate with the
paper's qualitative shape."""

from __future__ import annotations

import pytest

from repro.evalx.casestudy import (
    figure1_chain,
    figure3,
    figure8,
    render_table4,
    render_table5,
    render_table6,
    table3,
    table5,
    table6,
)
from repro.evalx.figures import figure6, figure7
from repro.evalx.paperdata import row_for
from repro.evalx.runner import evaluate_app
from repro.evalx.table1 import (
    generate_table1,
    render_table1,
    row_for_app,
    total_pairs,
)
from repro.evalx.table2 import render_table2, table2
from repro.evalx.traces import count_trace


@pytest.fixture(scope="module", autouse=True)
def warm_cache():
    # evaluate_app caches; warm it once for the whole module
    yield


class TestTable1:
    def test_open_rows_match_paper_exactly(self):
        """Open-source Table 1 rows are calibrated to the paper's values."""
        mismatches = []
        for key in ("adblock", "anarxiv", "blippex", "diaspora", "diode",
                    "ifixit", "lightning", "radioreddit", "reddinator",
                    "twister", "tzm", "wallabag", "weather"):
            row = row_for_app(key)
            paper = row_for(key)
            for field in ("get", "post", "put", "delete", "query", "xml"):
                measured = getattr(row, field).extractocol
                expected = getattr(paper, field)[0]
                if measured != expected:
                    mismatches.append((key, field, measured, expected))
            if row.pairs != paper.pairs:
                mismatches.append((key, "pairs", row.pairs, paper.pairs))
        assert not mismatches, mismatches

    def test_closed_method_counts_match_paper(self):
        """Closed-source Extractocol method columns equal the paper row
        (the corpus encodes them); fuzz columns agree within tolerance."""
        for key in ("fivemiles", "linkedin", "pinterest", "tophatter",
                    "wishlocal", "pandora", "geek"):
            row = row_for_app(key)
            paper = row_for(key)
            for field in ("get", "post", "put", "delete"):
                assert getattr(row, field).extractocol == getattr(paper, field)[0], (
                    key, field)
                # manual fuzzing within ±2 of the paper cell
                assert abs(
                    getattr(row, field).manual - getattr(paper, field)[1]
                ) <= 2, (key, field)

    def test_total_pairs_scale(self):
        """Paper: 971 reconstructed pairs; the corpus lands within 10%."""
        measured = total_pairs()
        assert abs(measured - 971) / 971 < 0.10

    def test_render_is_complete(self):
        text = render_table1()
        assert text.count("\n") >= 35
        for app in ("Diode", "Pinterest", "KAYAK", "radio reddit"):
            assert app in text


class TestFigures:
    def test_figure6_closed_ordering(self):
        f6 = figure6("closed")
        e, m, a = f6.extractocol, f6.manual, f6.third
        assert e.uris > m.uris > a.uris
        assert e.response_bodies > m.response_bodies > a.response_bodies
        assert e.request_bodies > m.request_bodies > a.request_bodies

    def test_figure6_open_agreement(self):
        f6 = figure6("open")
        # open-source: Extractocol ≈ source-code analysis ≈ manual fuzzing
        assert f6.extractocol.uris == pytest.approx(f6.third.uris, abs=3)
        assert f6.extractocol.response_bodies == f6.third.response_bodies

    def test_figure7_open_one_request_keyword_class_missing(self):
        """Extractocol (heuristics off) misses the async-built request
        keywords — 'identifies all but one' in the paper, three here (the
        radio reddit dir= pair and weather's lat/lon)."""
        f7 = figure7("open")
        missing = f7.third.request_keywords - f7.extractocol.request_keywords
        assert 1 <= missing <= 3

    def test_figure7_traffic_shows_more_response_keywords(self):
        """Apps don't inspect all response keys: traffic keyword counts
        exceed signature counts (paper: 616 vs 372 ≈ 60%)."""
        f7 = figure7("open")
        ratio = f7.extractocol.response_keywords / f7.manual.response_keywords
        assert 0.4 < ratio < 0.8

    def test_figure7_closed_extractocol_beats_manual_requests(self):
        f7 = figure7("closed")
        # paper: 7793 identified vs 3507 in traffic — same direction here
        assert f7.extractocol.request_keywords > f7.manual.request_keywords
        assert f7.manual.request_keywords > f7.third.request_keywords
        # and response keywords slightly exceed the traffic's
        # (paper: 14120 vs 13554)
        assert f7.extractocol.response_keywords >= f7.manual.response_keywords


class TestTable2:
    def test_request_bytes_nearly_fully_explained(self):
        for kind in ("open", "closed"):
            rk, rv, rn = table2(kind).request
            assert rk + rv > 0.75, (kind, rk, rv, rn)
            assert rk > 0.2

    def test_response_bytes_half_wildcarded(self):
        for kind in ("open", "closed"):
            rk, rv, rn = table2(kind).response
            assert 0.2 < rn < 0.8, (kind, rn)

    def test_render(self):
        text = render_table2()
        assert "open" in text and "closed" in text


class TestCaseStudies:
    def test_table5_totals(self):
        rows = table5()
        assert sum(r.apis for r in rows) == 43
        by_cat = {r.category: r.apis for r in rows}
        assert by_cat["Travel Planner"] == 11
        assert by_cat["Mobile Specific"] == 12
        assert by_cat["Flight"] == 6
        json_cats = {r.category for r in rows if r.response_json}
        assert {"Flight", "Car", "Advertising"} <= json_cats

    def test_table6_signatures(self):
        sigs = table6()
        assert "action=registerandroid" in sigs["/k/authajax"]
        for key in ("uuid=", "hash=", "platform=android", "tz="):
            assert key in sigs["/k/authajax"].replace("\\", "")
        start = sigs["/api/search/V8/flight/start"].replace("\\", "")
        for key in ("cabin=", "travelers=", "origin=", "destination=",
                    "depart_date", "_sid_="):
            assert key in start
        poll = sigs["/api/search/V8/flight/poll"].replace("\\", "")
        for key in ("searchid=", "nc=", "currency=", "includeopaques=true"):
            assert key in poll

    def test_figure8_sixteen_of_eighteen(self):
        result = figure8()
        assert result.total_traffic_keywords == 18
        assert result.matched_keywords == 16
        assert set(result.unmatched) == {"album", "score"}

    def test_figure1_prefetch_chain(self):
        chain = figure1_chain()
        assert len(chain) >= 3  # android_ad.json -> ad query -> ad video
        assert "media_player" in " ".join(chain)

    def test_figure3_slice_fraction_small(self):
        result = figure3()
        assert result.slice_fraction < 0.35  # paper: 6.3% of a real APK
        assert result.uri_patterns >= 3
        assert result.search_regex_matches

    def test_tables_render(self):
        assert "radio reddit" in table3()
        assert "TED" in render_table4()
        assert "KAYAK" in render_table5()
        assert "authajax" in render_table6()


class TestReverseEngineering:
    def test_signature_driven_replay(self):
        """§5.3: a client generated from the signatures retrieves flight
        fares, and the User-Agent header is load-bearing."""
        from repro.corpus import get_spec
        from repro.runtime.httpstack import HttpRequest

        spec = get_spec("kayak")
        network = spec.build_network()
        sigs = table6()
        ua = {"User-Agent": "kayakandroidphone/8.1"}
        r1 = network.send(HttpRequest(
            "POST", "https://www.kayak.com/k/authajax",
            headers=ua, body="action=registerandroid&uuid=u&hash=h"))
        sid = r1.json()["sid"]
        r2 = network.send(HttpRequest(
            "GET",
            f"https://www.kayak.com/api/search/V8/flight/start?cabin=e&origin=ICN&destination=SFO&_sid_={sid}",
            headers=ua))
        searchid = r2.json()["searchid"]
        r3 = network.send(HttpRequest(
            "GET",
            f"https://www.kayak.com/api/search/V8/flight/poll?searchid={searchid}&currency=USD",
            headers=ua))
        assert r3.json()["tripset"][0]["price"]
        # without the app-specific header, access is denied
        r4 = network.send(HttpRequest(
            "GET",
            f"https://www.kayak.com/api/search/V8/flight/poll?searchid={searchid}",
        ))
        assert r4.status == 403
