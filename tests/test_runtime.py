"""Tests for the dynamic substrate: interpreter, HTTP stack, fuzzers."""

from __future__ import annotations

import json

import pytest
from fixtures_http import CLS, build_mini_reddit

from repro.runtime.fuzzing import AutoUiFuzzer, ManualUiFuzzer
from repro.runtime.httpstack import (
    HttpRequest,
    HttpResponse,
    Network,
    TrafficTrace,
)
from repro.runtime.interpreter import Runtime
from repro.runtime.server import ScriptedServer


def reddit_network() -> Network:
    network = Network()
    server = ScriptedServer("www.reddit.com")

    @server.route("GET", r"/(r/\w+)?/?\.json")
    def listing(request, state):
        return HttpResponse.json_response(
            {
                "after": "t3_next",
                "children": [
                    {"title": "first post"},
                    {"title": "second post"},
                ],
            }
        )

    network.register("www.reddit.com", server)
    return network


class TestHttpStack:
    def test_request_parsing(self):
        req = HttpRequest("GET", "https://h.test/a/b?x=1&y=two")
        assert req.host == "h.test"
        assert req.path == "/a/b"
        assert req.query == {"x": "1", "y": "two"}
        assert req.scheme == "https"

    def test_network_routes_and_records(self):
        network = reddit_network()
        resp = network.send(HttpRequest("GET", "http://www.reddit.com/.json"))
        assert resp.status == 200
        assert "after" in resp.json()
        assert len(network.trace) == 1

    def test_unknown_host_502(self):
        network = Network()
        resp = network.send(HttpRequest("GET", "http://nowhere.test/"))
        assert resp.status == 502

    def test_unrouted_path_404(self):
        network = reddit_network()
        resp = network.send(HttpRequest("GET", "http://www.reddit.com/nope"))
        assert resp.status == 404


class TestInterpreter:
    def test_executes_reddit_flow(self):
        apk = build_mini_reddit()
        network = reddit_network()
        rt = Runtime(apk, network)
        rt.fire_entrypoint(apk.entrypoints[0])  # doInBackground
        urls = network.trace.urls()
        assert len(urls) == 1
        assert urls[0].startswith("http://www.reddit.com/")
        # response parsing stored the pagination token on the singleton
        fetcher = rt.singleton(CLS)
        assert fetcher.fields["mAfter"] == "t3_next"

    def test_state_persists_across_events(self):
        apk = build_mini_reddit()
        network = reddit_network()
        rt = Runtime(apk, network)
        rt.fire_entrypoint(apk.entrypoints[0])
        rt.fire_entrypoint(apk.entrypoints[1])  # loadMore uses mAfter
        urls = network.trace.urls()
        assert urls[1] == "http://www.reddit.com/.json?after=t3_next"

    def test_branching_on_field(self):
        apk = build_mini_reddit()
        network = reddit_network()
        rt = Runtime(apk, network)
        fetcher = rt.singleton(CLS)
        fetcher.fields["mSubreddit"] = "pics"
        rt.fire_entrypoint(apk.entrypoints[0])
        assert network.trace.urls()[0] == "http://www.reddit.com/r/pics.json?limit=25"

    def test_loop_executes_fully(self):
        """The title loop iterates over both children (no early exit)."""
        apk = build_mini_reddit()
        rt = Runtime(apk, reddit_network())
        rt.fire_entrypoint(apk.entrypoints[0])
        assert rt.stats.steps > 20
        assert not rt.stats.faults


class TestFuzzers:
    def test_manual_fires_ui_and_lifecycle(self):
        apk = build_mini_reddit()
        result = ManualUiFuzzer().fuzz(apk, reddit_network())
        assert len(result.fired) == 2
        assert len(result.trace) == 2

    def test_auto_fires_same_here(self):
        """No login/custom-UI gates in the fixture: PUMA matches manual."""
        apk = build_mini_reddit()
        result = AutoUiFuzzer().fuzz(apk, reddit_network())
        assert len(result.fired) == 2

    def test_gating(self):
        from repro.apk.model import EntryPoint, TriggerKind

        apk = build_mini_reddit()
        apk.entrypoints = [
            EntryPoint(apk.entrypoints[0].method_id, TriggerKind.UI,
                       name="buy", side_effect=True),
            EntryPoint(apk.entrypoints[1].method_id, TriggerKind.UI,
                       name="feed", requires_login=True),
        ]
        manual = ManualUiFuzzer().fuzz(apk, reddit_network())
        # no login flow exists, so the login-gated ep is skipped; the
        # side-effect ep is never fuzzed
        assert manual.fired == []
        assert {r for _, r in manual.skipped} == {
            "side-effect action (purchase/apply) — not fuzzable",
            "requires login and no login flow exists",
        }
        auto = AutoUiFuzzer().fuzz(apk, reddit_network())
        assert auto.fired == []

    def test_timer_entrypoints_never_fire(self):
        from repro.apk.model import EntryPoint, TriggerKind

        apk = build_mini_reddit()
        apk.entrypoints = [
            EntryPoint(apk.entrypoints[0].method_id, TriggerKind.TIMER, name="update")
        ]
        manual = ManualUiFuzzer().fuzz(apk, reddit_network())
        assert manual.fired == []
        assert len(manual.trace) == 0

    def test_custom_ui_blocks_auto_only(self):
        from repro.apk.model import EntryPoint, TriggerKind

        apk = build_mini_reddit()
        apk.entrypoints = [
            EntryPoint(apk.entrypoints[0].method_id, TriggerKind.UI_CUSTOM,
                       name="swipe-deck")
        ]
        manual = ManualUiFuzzer().fuzz(apk, reddit_network())
        auto = AutoUiFuzzer().fuzz(apk, reddit_network())
        assert manual.fired and not auto.fired


class TestStatefulServer:
    def test_login_state(self):
        server = ScriptedServer("api.test")

        @server.route("POST", r"/login")
        def login(request, state):
            state["token"] = "tok-123"
            return HttpResponse.json_response({"token": "tok-123"})

        @server.route("GET", r"/me")
        def me(request, state):
            if request.headers.get("Authorization") != "Bearer tok-123":
                return HttpResponse(status=401, body="unauthorized")
            return HttpResponse.json_response({"name": "alice"})

        network = Network()
        network.register("api.test", server)
        r1 = network.send(HttpRequest("POST", "https://api.test/login", body="{}"))
        token = r1.json()["token"]
        r2 = network.send(
            HttpRequest("GET", "https://api.test/me",
                        headers={"Authorization": f"Bearer {token}"})
        )
        assert r2.status == 200
        r3 = network.send(HttpRequest("GET", "https://api.test/me"))
        assert r3.status == 401
