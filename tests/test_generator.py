"""Tests for the corpus app generator: one synthetic app exercising every
endpoint class, checked against static analysis and both fuzzers."""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Extractocol
from repro.apk.model import TriggerKind
from repro.corpus.generator import GenApp, GenEndpoint, build_generated_app
from repro.ir.validate import validate_program
from repro.runtime.fuzzing import AutoUiFuzzer, ManualUiFuzzer


def demo_spec() -> GenApp:
    return GenApp(
        key="demoapp",
        name="DemoApp",
        kind="closed",
        package="com.demo.app",
        host="api.demo.test",
        resources={"api_key": "key-abc123"},
        endpoints=[
            GenEndpoint(
                name="login",
                method="POST",
                path="/v1/login",
                body=(("user", "input"), ("passwd", "input")),
                body_format="form",
                response={"token": "tok-1", "uid": "77"},
                reads=("token", "uid"),
                store={"token": "token"},
            ),
            GenEndpoint(
                name="feed",
                method="GET",
                path="/v1/feed",
                query=(("api-key", "resource:api_key"), ("page", "int:1")),
                headers=(("Authorization", "field:token"),),
                response={"items": [1, 2], "next": "p2"},
                reads=("next",),
                requires_login=True,
            ),
            GenEndpoint(
                name="search",
                method="GET",
                path="/v1/search",
                query=(("q", "input"),),
                response={"hits": "3"},
                reads=("hits",),
            ),
            GenEndpoint(
                name="purchase",
                method="POST",
                path="/v1/purchase",
                body=(("item", "const:sku-9"), ("qty", "int:1")),
                body_format="json",
                response={"order": "o-1"},
                reads=("order",),
                side_effect=True,
            ),
            GenEndpoint(
                name="update_check",
                method="GET",
                path="/v1/version",
                response={"latest": "2.0"},
                reads=("latest",),
                trigger=TriggerKind.TIMER,
            ),
            GenEndpoint(
                name="weatherxml",
                method="GET",
                path="/v1/weather",
                response_xml="<weather><temp>21</temp><city>Seoul</city></weather>",
                xml_reads=("temp", "city"),
            ),
            GenEndpoint(
                name="adlib",
                path="/ads/serve",
                via_intent=True,
            ),
        ],
    )


@pytest.fixture(scope="module")
def spec():
    return build_generated_app(demo_spec())


@pytest.fixture(scope="module")
def apk(spec):
    return spec.build_apk()


class TestGeneratedProgram:
    def test_valid_ir(self, apk):
        assert validate_program(apk.program) == []

    def test_entrypoints_cover_endpoints(self, apk):
        names = {ep.name for ep in apk.entrypoints}
        assert {"login", "feed", "search", "purchase", "update_check",
                "weatherxml", "adlib", "setup"} <= names

    def test_truth_counts(self, spec):
        truth = spec.truth
        assert truth.count() == 7
        assert truth.count("GET") == 5
        assert truth.count("POST") == 2
        assert truth.count(visible_to="static") == 6  # adlib missed
        assert truth.count(visible_to="manual") == 5  # purchase+timer unfuzzable
        assert truth.count(visible_to="auto") == 4  # feed needs login


class TestStaticAnalysis:
    @pytest.fixture(scope="class")
    def report(self, apk):
        return Extractocol(AnalysisConfig(async_heuristic=True)).analyze(apk)

    def test_identified_count_matches_truth(self, spec, report):
        assert len(report.transactions) == spec.truth.count(visible_to="static")

    def test_ad_endpoint_unidentified(self, report):
        assert len(report.unidentified) == 1
        assert report.unidentified[0].request.uri_regex == "^.*$"

    def test_token_dependency_found(self, report):
        deps = report.dependencies
        assert any(d.dst_field == "header:Authorization" for d in deps)

    def test_resource_key_inlined(self, report):
        feed = next(t for t in report.transactions if "/v1/feed" in t.request.uri_regex)
        assert "key\\-abc123" in feed.request.uri_regex or "key-abc123" in feed.request.uri_regex

    def test_xml_response_signature(self, report):
        weather = next(
            t for t in report.transactions if "/v1/weather" in t.request.uri_regex
        )
        assert weather.response.kind == "xml"
        kws = set(weather.response.keywords)
        assert {"temp", "city"} <= kws

    def test_form_body_keys(self, report):
        login = next(t for t in report.transactions if "/v1/login" in t.request.uri_regex)
        assert login.request.method == "POST"
        assert {"user", "passwd"} <= set(login.request.keywords)


class TestDynamicBaselines:
    def test_manual_fuzzer_coverage(self, spec):
        result = ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
        urls = result.trace.unique_urls()
        # login, feed, search, weatherxml and the ad chain produce traffic
        assert len(result.trace) == spec.truth.count(visible_to="manual")
        assert any("/v1/login" in u for u in urls)
        assert any("/ads/serve" in u for u in urls)
        assert not any("/v1/purchase" in u for u in urls)
        assert not any("/v1/version" in u for u in urls)
        assert not result.faults, result.faults

    def test_auto_fuzzer_coverage(self, spec):
        result = AutoUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
        urls = result.trace.unique_urls()
        assert len(result.trace) == spec.truth.count(visible_to="auto")
        assert not any("/v1/feed" in u for u in urls)  # login wall

    def test_coverage_ordering(self, spec):
        """The paper's headline: static ≥ manual ≥ auto (absent intent/async
        misses, which for this app is exactly one endpoint each way)."""
        static = Extractocol().analyze(spec.build_apk())
        manual = ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
        auto = AutoUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
        assert len(static.transactions) > len(manual.trace) > len(auto.trace)


class TestCollisionGuard:
    """Grid compilation makes name collisions likely; emission must raise
    instead of silently shadowing (satellite of the synth subsystem)."""

    def test_duplicate_endpoint_names_raise(self):
        spec = GenApp(
            key="dupapp", name="Dup", kind="open", package="com.dup",
            host="api.dup.test",
            endpoints=[
                GenEndpoint(name="feed", path="/v1/feed"),
                GenEndpoint(name="feed", path="/v2/feed",
                            query=(("q", "input"),)),
            ],
        )
        with pytest.raises(ValueError, match="duplicate endpoint name"):
            build_generated_app(spec)

    def test_duplicate_endpoint_name_via_intent_raises(self):
        spec = GenApp(
            key="dupapp", name="Dup", kind="open", package="com.dup",
            host="api.dup.test",
            endpoints=[
                GenEndpoint(name="ad", path="/v1/ad"),
                GenEndpoint(name="ad", path="/ads/serve", via_intent=True),
            ],
        )
        with pytest.raises(ValueError, match="duplicate endpoint name"):
            build_generated_app(spec)

    def test_custom_hook_duplicate_entrypoint_name_raises(self):
        def hook(emitter):
            cb = emitter.cb
            m = cb.method("extraHook")
            m.ret_void()
            # "feed" is already taken by the generated endpoint below
            emitter.add_entrypoint("extraHook", TriggerKind.UI, "feed")

        spec = GenApp(
            key="dupapp", name="Dup", kind="open", package="com.dup",
            host="api.dup.test",
            endpoints=[GenEndpoint(name="feed", path="/v1/feed")],
            custom=hook,
        )
        with pytest.raises(ValueError, match="duplicate entry-point name"):
            build_generated_app(spec)

    def test_custom_hook_duplicate_method_raises(self):
        def hook(emitter):
            # registers the already-registered ep_feed method a second time
            emitter.add_entrypoint("ep_feed", TriggerKind.UI, "feed2")

        spec = GenApp(
            key="dupapp", name="Dup", kind="open", package="com.dup",
            host="api.dup.test",
            endpoints=[GenEndpoint(name="feed", path="/v1/feed")],
            custom=hook,
        )
        with pytest.raises(ValueError, match="duplicate entry-point method"):
            build_generated_app(spec)
