"""Corpus-wide validation: every app builds, analyzes and fuzzes to its
ground truth (the per-cell agreement behind Table 1)."""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Extractocol
from repro.corpus import app_keys, get_spec
from repro.ir.validate import validate_program
from repro.runtime.fuzzing import AutoUiFuzzer, ManualUiFuzzer
from repro.signature.matcher import transaction_matches

ALL_KEYS = app_keys()


def analyze(spec):
    cfg = AnalysisConfig(
        async_heuristic=(spec.kind == "closed"),
        scope_prefixes=spec.scope_prefixes,
    )
    return Extractocol(cfg).analyze(spec.build_apk())


@pytest.mark.parametrize("key", ALL_KEYS)
def test_program_is_valid(key):
    spec = get_spec(key)
    apk = spec.build_apk()
    assert validate_program(apk.program) == []
    assert apk.manifest.uses_internet


@pytest.mark.parametrize("key", ALL_KEYS)
def test_static_coverage_matches_truth(key):
    """Extractocol identifies exactly the statically-visible endpoints."""
    spec = get_spec(key)
    report = analyze(spec)
    assert len(report.transactions) == spec.truth.count(visible_to="static")


@pytest.mark.parametrize("key", ALL_KEYS)
def test_manual_fuzzing_matches_truth(key):
    spec = get_spec(key)
    result = ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
    assert not result.faults, result.faults[:3]
    assert len(result.trace) == spec.truth.count(visible_to="manual")


@pytest.mark.parametrize("key", ALL_KEYS)
def test_auto_fuzzing_matches_truth(key):
    spec = get_spec(key)
    result = AutoUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
    assert len(result.trace) == spec.truth.count(visible_to="auto")


@pytest.mark.parametrize("key", ALL_KEYS)
def test_signatures_match_manual_traffic(key):
    """§5.1 signature validity: every identified signature with traffic has
    a valid match, and every trace entry from a statically-visible endpoint
    matches some signature."""
    spec = get_spec(key)
    # match against the unscoped analysis so out-of-scope library traffic
    # (Kayak's ad tracker) still has a signature to compare with
    report = Extractocol(
        AnalysisConfig(async_heuristic=(spec.kind == "closed"))
    ).analyze(spec.build_apk())
    result = ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
    static_hosts_missing = []
    for captured in result.trace:
        matched = any(
            transaction_matches(
                t, captured.request.method, captured.request.url,
                captured.request.body,
            )
            for t in report.transactions + report.unidentified
        )
        if not matched:
            static_hosts_missing.append(str(captured))
    assert not static_hosts_missing, static_hosts_missing[:5]


@pytest.mark.parametrize("key", ["fivemiles", "flipboard", "lucktastic",
                                 "accuweather", "offerup", "tophatter"])
def test_login_wall_blocks_automation(key):
    """Apps behind login walls yield (nearly) nothing to automatic fuzzing
    — the zero columns of Table 1."""
    spec = get_spec(key)
    result = AutoUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
    assert len(result.trace) == 0


class TestCoverageOrdering:
    """The headline shape: Extractocol ≥ manual ≥ auto on identified
    messages, modulo the intent/async endpoints only dynamic runs see."""

    @pytest.mark.parametrize("key", app_keys("open"))
    def test_open_apps_all_methods_agree(self, key):
        spec = get_spec(key)
        static_n = len(analyze(spec).transactions)
        manual_n = len(ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network()).trace)
        assert static_n == manual_n == spec.truth.count()

    def test_closed_aggregate_ordering(self):
        static_total = manual_total = auto_total = 0
        for key in app_keys("closed"):
            spec = get_spec(key)
            static_total += len(analyze(spec).transactions)
            manual_total += len(
                ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network()).trace
            )
            auto_total += len(
                AutoUiFuzzer().fuzz(spec.build_apk(), spec.build_network()).trace
            )
        assert static_total > manual_total > auto_total


class TestCaseStudyApps:
    def test_radioreddit_table3(self):
        report = analyze(get_spec("radioreddit"))
        sigs = report.request_signatures()
        assert any("status\\.json" in s or "status.json" in s.replace("\\", "")
                   for s in sigs)
        assert any("(?:save|unsave)" in s or "(?:unsave|save)" in s for s in sigs)
        login = next(t for t in report.transactions
                     if "ssl.reddit.com" in t.request.uri_regex.replace("\\", ""))
        assert {"user", "passwd", "api_type"} <= set(login.request.keywords)
        # modhash/cookie dependencies into #4 and #5
        dep_dsts = {(d.dst_field, d.src_path) for d in report.dependencies}
        assert any("modhash" in p for _, p in dep_dsts)
        assert any("cookie" in p for _, p in dep_dsts)
        # the relay stream is consumed by the media player
        assert "media_player" in report.consumers()

    def test_ted_table4(self):
        report = analyze(get_spec("ted"))
        # dynamically derived requests: ad query, ad video, thumbnail, video
        dynamic = [t for t in report.transactions if t.request.is_dynamic]
        assert len(dynamic) == 4
        # two streams feed the player; their source responses are also
        # marked consumed (the prefetch knowledge of Fig. 1)
        streams = [t for t in report.transactions
                   if t.consumer == "media_player"]
        assert len(streams) == 2
        assert len(report.consumers().get("media_player", [])) == 4
        # DB-mediated dependencies exist (talk sync -> thumbnail/video)
        assert len(report.dependencies) >= 4

    def test_kayak_scoping_and_header(self):
        spec = get_spec("kayak")
        report = analyze(spec)
        # Table 5: 43 in-scope APIs; the ad tracker is scoped out
        assert len(report.transactions) == 43
        assert not any("admarvel" in t.request.uri_regex
                       for t in report.transactions)
        authajax = next(t for t in report.transactions
                        if "/k/authajax" in t.request.uri_regex
                        and t.request.method == "POST"
                        and "registerandroid" in (t.request.body_regex or ""))
        headers = dict(authajax.request.headers)
        assert "User-Agent" in headers
        flight_start = next(t for t in report.transactions
                            if "flight/start" in t.request.uri_regex)
        for key in ("cabin", "travelers", "origin", "destination",
                    "depart_date", "_sid_"):
            assert key in flight_start.request.uri_regex

    def test_weather_async_heuristic_difference(self):
        spec = get_spec("weather")
        apk_off = spec.build_apk()
        off = Extractocol(AnalysisConfig(async_heuristic=False)).analyze(apk_off)
        on = Extractocol(AnalysisConfig(async_heuristic=True)).analyze(
            spec.build_apk()
        )
        forecast_off = next(t for t in off.transactions
                            if "forecast" in t.request.uri_regex)
        forecast_on = next(t for t in on.transactions
                           if "forecast" in t.request.uri_regex)
        # heuristic off: lat/lon keywords lost; on: recovered
        assert "lat" not in forecast_off.request.uri_regex
        assert "lat=" in forecast_on.request.uri_regex.replace("\\", "")

    def test_radioreddit_missing_keyword_with_heuristic_off(self):
        spec = get_spec("radioreddit")
        off = Extractocol(AnalysisConfig(async_heuristic=False)).analyze(
            spec.build_apk()
        )
        on = Extractocol(AnalysisConfig(async_heuristic=True)).analyze(
            spec.build_apk()
        )

        def vote_keywords(report):
            vote = next(t for t in report.transactions
                        if "api/vote" in t.request.uri_regex)
            return set(vote.request.keywords)

        assert "dir" not in vote_keywords(off)  # the one missed keyword
        assert "dir" in vote_keywords(on)


# ------------------------------------------------------ building an app
def _listing():
    import contextlib
    import io

    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus"]) == 0


def _resolve(target):
    from repro.service.jobs import resolve_target

    return lambda: resolve_target(target)


@pytest.fixture
def emitted(monkeypatch):
    """The app keys `_AppEmitter.emit` runs for, counted from empty corpus
    caches, as in a fresh interpreter."""
    import repro.corpus as corpus
    from repro.corpus.generator import _AppEmitter
    from repro.synth import synth_spec

    monkeypatch.setattr(corpus, "_REGISTRY", None)
    monkeypatch.setattr(corpus, "_SPECS", {}, raising=False)
    synth_spec.cache_clear()
    keys = []
    real = _AppEmitter.emit

    def emit(self):
        keys.append(self.spec.key)
        return real(self)

    monkeypatch.setattr(_AppEmitter, "emit", emit)
    return keys


@pytest.mark.parametrize("call, expected", [
    pytest.param(app_keys, [], id="app_keys"),
    pytest.param(_listing, [], id="repro-corpus"),
    pytest.param(_resolve("ted"), ["ted"], id="resolve-corpus-key"),
    pytest.param(_resolve("syn-transports-s7-0000"),
                 ["syn-transports-s7-0000"], id="resolve-syn-key"),
    pytest.param(_resolve("syn-obfuscated-s7-0000"),
                 ["syn-obfuscated-s7-0000"], id="resolve-obfuscated-key"),
    pytest.param(_resolve("reddinator@v2"), ["reddinator"],
                 id="resolve-lineage-label"),
    pytest.param(lambda: get_spec("ted").truth, ["ted"], id="truth"),
])
def test_emit_census(emitted, call, expected):
    """Listing the corpus emits no IR, a resolved target is one emit, and
    ground truth costs one probe emit of the app asked for."""
    call()
    assert emitted == expected


def _same_apk_targets():
    from repro.synth import parse_population

    # synth:all*16@7 holds two apps of the obfuscated family
    return ALL_KEYS + parse_population("synth:all*16@7").keys()


@pytest.mark.parametrize("target", _same_apk_targets())
def test_resolve_target_builds_what_the_spec_builds(target):
    from repro.apk.loader import apk_digest
    from repro.service.jobs import resolve_target

    apk, config, _ = resolve_target(target)
    spec = get_spec(target)
    assert apk_digest(apk) == apk_digest(spec.build_apk())
    assert config.cache_key() == spec.analysis_config().cache_key()


@pytest.mark.parametrize("key", ["ted", "syn-obfuscated-s7-0000"])
def test_build_app_returns_a_new_apk_per_call(key):
    from repro.corpus import build_app

    first, second = build_app(key), build_app(key)
    assert first is not second
    assert first.program is not second.program
