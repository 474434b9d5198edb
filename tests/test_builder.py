"""Tests for the signature interpreter (flow-sensitive signature building)."""

from __future__ import annotations

import pytest
from fixtures_http import CLS, build_mini_reddit

from repro.cfg.callgraph import build_callgraph
from repro.ir.builder import ProgramBuilder
from repro.signature.builder import SignatureInterpreter, TxnRecord, detect_rep
from repro.signature.lang import (
    Alt,
    Const,
    JsonObject,
    Rep,
    Unknown,
    concat,
    origins_of,
    rep,
)
from repro.signature.regex import compile_regex, to_regex


def interp_of(apk) -> SignatureInterpreter:
    cg = build_callgraph(apk.program)
    return SignatureInterpreter(apk.program, cg, resources=apk.resources)


def run_roots(apk):
    interp = interp_of(apk)
    roots = [(ep.method_id, ep.kind.value) for ep in apk.entrypoints]
    return interp.run(roots)


class TestMiniReddit:
    @pytest.fixture(scope="class")
    def result(self):
        return run_roots(build_mini_reddit())

    def test_two_transactions(self, result):
        assert len(result.transactions) == 2

    def test_front_page_uri_signature(self, result):
        txn = next(t for t in result.transactions if "doInBackground" in t.root)
        assert txn.request.method == "GET"
        rx = compile_regex(txn.request.uri)
        assert rx.match("http://www.reddit.com/r/pics.json?limit=25")
        assert rx.match("http://www.reddit.com/.json?")
        assert rx.match("http://www.reddit.com/.json?&after=t3_abc")
        assert not rx.match("http://evil.example.com/x")

    def test_response_access_tree(self, result):
        txn = next(t for t in result.transactions if "doInBackground" in t.root)
        assert txn.acc is not None
        assert txn.acc.kind == "json"
        paths = txn.acc.paths()
        assert ("after",) in paths
        assert ("children", "[]", "title") in paths

    def test_response_term_renders_open_json(self, result):
        txn = next(t for t in result.transactions if "doInBackground" in t.root)
        term = txn.response_term
        assert isinstance(term, JsonObject)
        assert term.open_
        keys = {k.text for k, _ in term.entries}
        assert keys == {"after", "children"}

    def test_inter_transaction_dependency_via_field(self, result):
        """loadMore's URI embeds the `after` token from the first response."""
        txn = next(t for t in result.transactions if "loadMore" in t.root)
        origins = origins_of(txn.request.uri)
        assert any(o.startswith("response:") and o.endswith("after") for o in origins)

    def test_uri_constant_prefix_preserved(self, result):
        txn = next(t for t in result.transactions if "loadMore" in t.root)
        consts = [t.text for t in txn.request.uri.walk() if isinstance(t, Const)]
        assert any("reddit.com/.json?after=" in c for c in consts)


class TestLoopsAndRep:
    def test_detect_rep_string_growth(self):
        old = concat(Const("a"), Const("b"))  # == Const("ab")
        new = concat(Const("ab"), Unknown("str"), Const("&"))
        out = detect_rep(old, new)
        assert isinstance(out, type(concat(Const("x"), rep(Const("y")))))
        assert any(isinstance(t, Rep) for t in out.walk())

    def test_detect_rep_divergent_falls_back_to_alt(self):
        out = detect_rep(Const("a"), Const("b"))
        assert isinstance(out, Alt)

    def test_loop_built_query_string_gets_rep(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.LoopApp")
        m = cb.method("fetch", params=["int"])
        sb = m.new("java.lang.StringBuilder", ["http://api.test/items?"])
        i = m.let("i", "int", 0)
        m.label("LOOP")
        m.if_goto(i, ">=", m.param(0), "DONE")
        m.vcall(sb, "append", ["id[]="], returns="java.lang.StringBuilder")
        m.vcall(sb, "append", [i], returns="java.lang.StringBuilder")
        m.vcall(sb, "append", ["&"], returns="java.lang.StringBuilder")
        i2 = m.binop("+", i, 1)
        m.assign(i, i2)
        m.goto("LOOP")
        m.label("DONE")
        url = m.vcall(sb, "toString", [], returns="java.lang.String", into="url")
        req = m.new("org.apache.http.client.methods.HttpGet", [url], into="req")
        client = m.local("client", "org.apache.http.client.HttpClient")
        m.assign(client, None)
        m.vcall(client, "execute", [req],
                returns="org.apache.http.HttpResponse",
                on="org.apache.http.client.HttpClient")
        m.ret_void()
        prog = pb.build()
        cg = build_callgraph(prog)
        interp = SignatureInterpreter(prog, cg)
        result = interp.run([("<t.LoopApp: void fetch(int)>", "ui")])
        assert len(result.transactions) == 1
        uri = result.transactions[0].request.uri
        assert any(isinstance(t, Rep) for t in uri.walk()), str(uri)
        rx = compile_regex(uri)
        assert rx.match("http://api.test/items?")
        assert rx.match("http://api.test/items?id[]=0&id[]=1&")


class TestRequestBodies:
    def _post_app(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.PostApp")
        m = cb.method("login", params=["java.lang.String", "java.lang.String"])
        body = m.new("org.json.JSONObject", [], into="body")
        m.vcall(body, "put", ["user", m.param(0)], returns="org.json.JSONObject")
        m.vcall(body, "put", ["passwd", m.param(1)], returns="org.json.JSONObject")
        s = m.vcall(body, "toString", [], returns="java.lang.String", into="s")
        entity = m.new("org.apache.http.entity.StringEntity", [s], into="entity")
        req = m.new(
            "org.apache.http.client.methods.HttpPost",
            ["https://ssl.api.test/login"],
            into="req",
        )
        m.vcall(req, "setEntity", [entity])
        client = m.local("client", "org.apache.http.client.HttpClient")
        m.assign(client, None)
        resp = m.vcall(client, "execute", [req],
                       returns="org.apache.http.HttpResponse",
                       on="org.apache.http.client.HttpClient", into="resp")
        b = m.scall("org.apache.http.util.EntityUtils", "toString", [resp],
                    returns="java.lang.String", into="b")
        j = m.new("org.json.JSONObject", [b], into="j")
        m.vcall(j, "getString", ["token"], returns="java.lang.String")
        m.ret_void()
        return pb.build()

    def test_post_with_json_body(self):
        prog = self._post_app()
        cg = build_callgraph(prog)
        interp = SignatureInterpreter(prog, cg)
        result = interp.run(
            [("<t.PostApp: void login(java.lang.String,java.lang.String)>", "ui")]
        )
        assert len(result.transactions) == 1
        txn = result.transactions[0]
        assert txn.request.method == "POST"
        assert isinstance(txn.request.body, JsonObject)
        keys = {k.text for k, _ in txn.request.body.entries}
        assert keys == {"user", "passwd"}
        assert txn.acc.paths() == [("token",)]


class TestMediaPlayerConsumer:
    def test_media_uri_from_response_marks_consumer(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.RadioApp")
        m = cb.method("play")
        client = m.local("client", "org.apache.http.client.HttpClient")
        m.assign(client, None)
        req = m.new(
            "org.apache.http.client.methods.HttpGet",
            ["http://www.radioreddit.com/api/hiphop/status.json"],
            into="req",
        )
        resp = m.vcall(client, "execute", [req],
                       returns="org.apache.http.HttpResponse",
                       on="org.apache.http.client.HttpClient", into="resp")
        b = m.scall("org.apache.http.util.EntityUtils", "toString", [resp],
                    returns="java.lang.String", into="b")
        j = m.new("org.json.JSONObject", [b], into="j")
        relay = m.vcall(j, "getString", ["relay"], returns="java.lang.String",
                        into="relay")
        mp = m.new("android.media.MediaPlayer", [], into="mp")
        m.vcall(mp, "setDataSource", [relay])
        m.ret_void()
        prog = pb.build()
        cg = build_callgraph(prog)
        interp = SignatureInterpreter(prog, cg)
        result = interp.run([("<t.RadioApp: void play()>", "ui")])
        assert len(result.transactions) == 2
        status, stream = result.transactions
        # the status response is consumed by the media player via `relay`
        assert "media_player" in status.acc.consumers
        assert ("relay",) in status.acc.paths()
        # the second transaction is GET (.*) — a dynamic URI from response
        assert stream.request.method == "GET"
        assert origins_of(stream.request.uri)
        assert to_regex(stream.request.uri) == "^.*$"


class TestEntrypointOrigins:
    def test_ui_param_tagged_user_input(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.SearchApp")
        m = cb.method("search", params=["java.lang.String"])
        url = m.concat("http://s.test/q?term=", m.param(0), into="url")
        req = m.new("org.apache.http.client.methods.HttpGet", [url], into="req")
        client = m.local("client", "org.apache.http.client.HttpClient")
        m.assign(client, None)
        m.vcall(client, "execute", [req],
                returns="org.apache.http.HttpResponse",
                on="org.apache.http.client.HttpClient")
        m.ret_void()
        prog = pb.build()
        cg = build_callgraph(prog)
        interp = SignatureInterpreter(prog, cg)
        result = interp.run([("<t.SearchApp: void search(java.lang.String)>", "ui")])
        uri = result.transactions[0].request.uri
        assert "user_input" in origins_of(uri)
