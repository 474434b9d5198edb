"""Tests for the slicing orchestration layer: DP scanning for every
transport, object-aware augmentation, and slicing-report statistics."""

from __future__ import annotations

import pytest

from repro.cfg.callgraph import build_callgraph
from repro.ir.builder import ProgramBuilder
from repro.slicing.demarcation import (
    DemarcationRegistry,
    scan_demarcation_points,
)
from repro.slicing.slicer import NetworkSlicer


class TestListenerSeeds:
    def test_okhttp_enqueue_listener_resolved(self):
        pb = ProgramBuilder()
        cb_listener = pb.class_("t.Cb", interfaces=("okhttp3.Callback",))
        lm = cb_listener.method(
            "onResponse", params=["okhttp3.Call", "okhttp3.Response"]
        )
        body = lm.vcall(lm.param(1), "body", [], returns="okhttp3.ResponseBody")
        lm.vcall(body, "string", [], returns="java.lang.String")
        lm.ret_void()
        cb = pb.class_("t.App")
        m = cb.method("go")
        rb = m.new("okhttp3.Request$Builder", [], into="rb")
        m.vcall(rb, "url", ["https://ok.test/x"], returns="okhttp3.Request$Builder")
        req = m.vcall(rb, "build", [], returns="okhttp3.Request")
        client = m.new("okhttp3.OkHttpClient", [], into="client")
        call = m.vcall(client, "newCall", [req], returns="okhttp3.Call")
        listener = m.new("t.Cb", [], into="cb")
        m.vcall(call, "enqueue", [listener])
        m.ret_void()
        program = pb.build()
        cg = build_callgraph(program)
        dps = scan_demarcation_points(program, cg)
        enqueue = next(d for d in dps if d.spec.method_name == "enqueue")
        assert enqueue.listener_class == "t.Cb"
        # the response seed is onResponse's second parameter
        assert enqueue.response_seeds
        ref, value = enqueue.response_seeds[0]
        assert "onResponse" in ref.method_id
        assert value.name == "p1"

    def test_volley_listener_found_via_request_ctor(self):
        pb = ProgramBuilder()
        cb_listener = pb.class_(
            "t.L", interfaces=("com.android.volley.Response$Listener",)
        )
        lm = cb_listener.method("onResponse", params=["org.json.JSONObject"])
        lm.vcall(lm.param(0), "getString", ["k"], returns="java.lang.String")
        lm.ret_void()
        cb = pb.class_("t.App", superclass="android.app.Activity")
        m = cb.method("go")
        listener = m.new("t.L", [], into="l")
        req = m.new("com.android.volley.toolbox.JsonObjectRequest",
                    [0, "https://v.test/x", listener])
        q = m.scall("com.android.volley.toolbox.Volley", "newRequestQueue",
                    [m.this], returns="com.android.volley.RequestQueue")
        m.vcall(q, "add", [req], returns="com.android.volley.Request")
        m.ret_void()
        program = pb.build()
        cg = build_callgraph(program)
        dps = scan_demarcation_points(program, cg)
        add = next(d for d in dps if d.spec.method_name == "add")
        assert add.listener_class == "t.L"
        # the scan registered the implicit listener edge on the call graph
        assert any(
            "onResponse" in target
            for targets in cg.implicit.values()
            for target, _ in targets
        )


class TestAugmentation:
    def test_forward_slice_pulls_initialization(self):
        """§3.1: 'if an object used in a forward slice is initialized before
        the demarcation point, the slice does not contain the initialization
        parameters' — augmentation pulls them in from the request slice."""
        pb = ProgramBuilder()
        cb = pb.class_("t.App")
        m = cb.method("go")
        # an object initialised BEFORE the DP, then used in response handling
        tag = m.let("tag", "java.lang.String", "prefix-")
        req = m.new("org.apache.http.client.methods.HttpGet",
                    ["https://aug.test/x"])
        client = m.local("client", "org.apache.http.client.HttpClient")
        m.assign(client, None)
        resp = m.vcall(client, "execute", [req],
                       returns="org.apache.http.HttpResponse",
                       on="org.apache.http.client.HttpClient")
        body = m.scall("org.apache.http.util.EntityUtils", "toString", [resp],
                       returns="java.lang.String")
        labeled = m.concat(tag, body)  # uses pre-DP object in the response slice
        m.scall("android.util.Log", "d", ["t", labeled])
        m.ret_void()
        program = pb.build()
        cg = build_callgraph(program)
        slicer = NetworkSlicer(program, cg)
        dp_slices = slicer.slice_dp(slicer.scan()[0])
        texts = [
            str(program.method_by_id(r.method_id).stmt_at(r.index))
            for r in dp_slices.response.stmts
        ]
        assert any("'prefix-'" in t for t in texts), texts

    def test_prefers_the_request_slice_definition(self):
        """A dangling local is first resolved from the request slice of the
        same DP; only what is still dangling pulls every definition in
        its method.  ``tag``'s overwritten first definition reaches
        neither slice, so it stays out of the response slice."""
        pb = ProgramBuilder()
        cb = pb.class_("t.App")
        m = cb.method("go")
        tag = m.let("tag", "java.lang.String", "stale-")
        m.assign(tag, "prefix-")
        url = m.concat(tag, "https://aug.test/x")
        req = m.new("org.apache.http.client.methods.HttpGet", [url])
        client = m.local("client", "org.apache.http.client.HttpClient")
        m.assign(client, None)
        resp = m.vcall(client, "execute", [req],
                       returns="org.apache.http.HttpResponse",
                       on="org.apache.http.client.HttpClient")
        body = m.scall("org.apache.http.util.EntityUtils", "toString", [resp],
                       returns="java.lang.String")
        labeled = m.concat(tag, body)
        m.scall("android.util.Log", "d", ["t", labeled])
        m.ret_void()
        program = pb.build()
        slicer = NetworkSlicer(program, build_callgraph(program))
        dp_slices = slicer.slice_dp(slicer.scan()[0])

        def texts(stmts):
            return [
                str(program.method_by_id(r.method_id).stmt_at(r.index))
                for r in stmts
            ]

        assert any("'prefix-'" in t for t in texts(dp_slices.request.stmts))
        response = texts(dp_slices.response.stmts)
        assert any("'prefix-'" in t for t in response), response
        assert not any("'stale-'" in t for t in response), response


class TestSlicingReport:
    def test_fraction_and_missed_flows_aggregate(self):
        from repro.corpus import build_app

        apk = build_app("linkedin")
        cg = build_callgraph(apk.program)
        from repro.semantics.async_model import (
            compute_event_roots,
            discover_callbacks,
        )
        from repro.taint.engine import TaintConfig

        info = discover_callbacks(apk.program, cg)
        roots = compute_event_roots(
            apk.program, cg, [ep.method_id for ep in apk.entrypoints],
            info.boundary_methods,
        )
        slicer = NetworkSlicer(
            apk.program, cg, config=TaintConfig(max_async_hops=1),
            event_roots=roots, linked_returns=info.linked_returns,
        )
        report = slicer.slice_all()
        assert 0 < report.slice_fraction < 1
        # LinkedIn carries intent-fed ad endpoints: the second async hop of
        # each chain is recorded as missed
        assert report.missed_async_flows
        assert len(report.slices) == report.total_statements * 0 + len(report.slices)
        assert all(s.request.stmts or s.response.stmts for s in report.slices)

    def test_custom_registry_restricts_scan(self):
        from repro.corpus import build_app
        from repro.slicing.demarcation import DPSpec

        apk = build_app("radioreddit")
        cg = build_callgraph(apk.program)
        media_only = DemarcationRegistry(
            (DPSpec("android.media.MediaPlayer", "setDataSource",
                    request="arg0", response="none", method_hint="GET",
                    consumer="media_player"),)
        )
        slicer = NetworkSlicer(apk.program, cg, registry=media_only)
        dps = slicer.scan()
        assert len(dps) == 1
        assert dps[0].spec.class_name == "android.media.MediaPlayer"
