"""Tests for slice-based request↔response pairing via disjoint sub-slices
(paper §3.3, Figure 5)."""

from __future__ import annotations

import pytest

from repro.cfg.callgraph import build_callgraph
from repro.deps.pairing import pair_slices, split_contexts
from repro.ir.builder import ProgramBuilder
from repro.slicing.demarcation import scan_demarcation_points
from repro.slicing.slicer import NetworkSlicer
from repro.taint.engine import TaintEngine


def figure5_program():
    """requestA()/requestB() diverge, reconverge in common2() (the shared
    demarcation point), then A's and B's responses are handled by disjoint
    responseA()/responseB()."""
    pb = ProgramBuilder()
    cb = pb.class_("f5.App")

    ra = cb.method("requestA")
    url_a = ra.concat("https://api.f5.test/a?item=", "1", into="urlA")
    resp_a = ra.call_this("common1", [url_a], returns="java.lang.String",
                          into="respA")
    ra.call_this("responseA", [resp_a])
    ra.ret_void()

    rb = cb.method("requestB")
    url_b = rb.concat("https://api.f5.test/b?page=", "2", into="urlB")
    resp_b = rb.call_this("common2", [url_b], returns="java.lang.String",
                          into="respB")
    rb.call_this("responseB", [resp_b])
    rb.ret_void()

    c1 = cb.method("common1", params=["java.lang.String"],
                   returns="java.lang.String")
    out1 = c1.call_this("common2", [c1.param(0)], returns="java.lang.String")
    c1.ret(out1)

    c2 = cb.method("common2", params=["java.lang.String"],
                   returns="java.lang.String")
    req = c2.new("org.apache.http.client.methods.HttpGet", [c2.param(0)])
    client = c2.local("client", "org.apache.http.client.HttpClient")
    c2.assign(client, None)
    resp = c2.vcall(client, "execute", [req],
                    returns="org.apache.http.HttpResponse",
                    on="org.apache.http.client.HttpClient")
    body = c2.scall("org.apache.http.util.EntityUtils", "toString", [resp],
                    returns="java.lang.String")
    c2.ret(body)

    pa = cb.method("responseA", params=["java.lang.String"])
    ja = pa.new("org.json.JSONObject", [pa.param(0)])
    pa.vcall(ja, "getString", ["fieldA"], returns="java.lang.String")
    pa.ret_void()

    pb_m = cb.method("responseB", params=["java.lang.String"])
    jb = pb_m.new("org.json.JSONObject", [pb_m.param(0)])
    pb_m.vcall(jb, "getString", ["fieldB"], returns="java.lang.String")
    pb_m.ret_void()

    return pb.build()


@pytest.fixture(scope="module")
def sliced():
    program = figure5_program()
    cg = build_callgraph(program)
    slicer = NetworkSlicer(program, cg)
    dps = slicer.scan()
    assert len(dps) == 1, "one shared demarcation point"
    dp_slices = slicer.slice_dp(dps[0])
    return program, cg, dp_slices


class TestDisjointSegments:
    def test_request_contexts_split(self, sliced):
        _, _, dp_slices = sliced
        contexts = split_contexts(dp_slices.request, entries=True)
        roots = {mid.split(" ")[-1] for mid in contexts.disjoint}
        assert {"requestA()>", "requestB()>"} <= roots

    def test_common_segment_shared(self, sliced):
        _, _, dp_slices = sliced
        contexts = split_contexts(dp_slices.request, entries=True)
        assert any("common2" in m for m in contexts.shared)

    def test_disjoint_segments_exclude_shared(self, sliced):
        _, _, dp_slices = sliced
        contexts = split_contexts(dp_slices.request, entries=True)
        for root, segment in contexts.disjoint.items():
            assert not any("common2" in m for m in segment)

    def test_response_contexts_split(self, sliced):
        _, _, dp_slices = sliced
        contexts = split_contexts(dp_slices.response, entries=False)
        handlers = {mid for mid in contexts.disjoint}
        assert any("responseA" in m for m in handlers)
        assert any("responseB" in m for m in handlers)


class TestPairing:
    def test_one_to_one_pairing(self, sliced):
        """Naive flow analysis finds paths 1→6 for both A and B; disjoint
        sub-slices recover the one-to-one pairing (Figure 5)."""
        _, cg, dp_slices = sliced
        pairings = pair_slices(dp_slices.request, dp_slices.response, cg,
                               dp_method=dp_slices.dp.site.method_id)
        as_names = {
            (p.request_context.split(" ")[-1], p.response_context.split(" ")[-1])
            for p in pairings
        }
        assert ("requestA()>", "responseA(java.lang.String)>") in as_names
        assert ("requestB()>", "responseB(java.lang.String)>") in as_names
        assert ("requestA()>", "responseB(java.lang.String)>") not in as_names
        assert ("requestB()>", "responseA(java.lang.String)>") not in as_names

    def test_common_handler_pairs_many_to_one(self):
        """'Pairing may not always be one-to-one ... there might be a common
        response handler for multiple requests.'"""
        pb = ProgramBuilder()
        cb = pb.class_("f5b.App")
        for name, url in (("requestA", "https://x.test/a"),
                          ("requestB", "https://x.test/b")):
            m = cb.method(name)
            resp = m.call_this("doFetch", [url], returns="java.lang.String",
                               into="resp")
            m.call_this("handle", [resp])
            m.ret_void()
        d = cb.method("doFetch", params=["java.lang.String"],
                      returns="java.lang.String")
        req = d.new("org.apache.http.client.methods.HttpGet", [d.param(0)])
        client = d.local("client", "org.apache.http.client.HttpClient")
        d.assign(client, None)
        resp = d.vcall(client, "execute", [req],
                       returns="org.apache.http.HttpResponse",
                       on="org.apache.http.client.HttpClient")
        body = d.scall("org.apache.http.util.EntityUtils", "toString", [resp],
                       returns="java.lang.String")
        d.ret(body)
        h = cb.method("handle", params=["java.lang.String"])
        j = h.new("org.json.JSONObject", [h.param(0)])
        h.vcall(j, "getString", ["shared"], returns="java.lang.String")
        h.ret_void()
        program = pb.build()
        cg = build_callgraph(program)
        slicer = NetworkSlicer(program, cg)
        dp_slices = slicer.slice_dp(slicer.scan()[0])
        pairings = pair_slices(dp_slices.request, dp_slices.response, cg,
                               dp_method=dp_slices.dp.site.method_id)
        handlers = {p.response_context for p in pairings}
        requests = {p.request_context for p in pairings}
        assert len(requests) == 2
        assert len(handlers) == 1  # many-to-one onto the common handler
