"""Unit tests for the concrete runtime stdlib — the dynamic twins of the
static semantic models, exercised through tiny programs."""

from __future__ import annotations

import json

import pytest

from repro.apk.manifest import Manifest
from repro.apk.model import Apk, EntryPoint, TriggerKind
from repro.apk.resources import Resources
from repro.ir.builder import ProgramBuilder
from repro.runtime.httpstack import HttpResponse, Network
from repro.runtime.interpreter import Runtime
from repro.runtime.server import ScriptedServer


def run_app(build_method, *, routes=(), resources=None, params=None):
    pb = ProgramBuilder()
    cb = pb.class_("rt.App", superclass="android.app.Activity")
    m = cb.method("go", params=params or [])
    build_method(m)
    m.ret_void()
    program = pb.build()
    apk = Apk(
        manifest=Manifest(package="rt"),
        program=program,
        resources=resources or Resources(),
        entrypoints=[EntryPoint(
            str(program.class_of("rt.App").find_methods("go")[0].sig),
            TriggerKind.UI, "go")],
    )
    network = Network()
    for host, method, pattern, handler in routes:
        server = ScriptedServer(host)
        server.add(method, pattern, handler)
        network.register(host, server)
    rt = Runtime(apk, network)
    rt.fire_entrypoint(apk.entrypoints[0])
    return rt, network


class TestStringsRuntime:
    def test_format_and_builder(self):
        captured = {}

        def build(m):
            s = m.scall("java.lang.String", "format", ["u/%s/x/%d", "bob", 3],
                        returns="java.lang.String")
            sb = m.new("java.lang.StringBuilder", ["http://h.test/"])
            m.vcall(sb, "append", [s], returns="java.lang.StringBuilder")
            url = m.vcall(sb, "toString", [], returns="java.lang.String")
            req = m.new("org.apache.http.client.methods.HttpGet", [url])
            client = m.local("client", "org.apache.http.client.HttpClient")
            m.assign(client, None)
            m.vcall(client, "execute", [req],
                    returns="org.apache.http.HttpResponse",
                    on="org.apache.http.client.HttpClient")

        rt, network = run_app(
            build,
            routes=(("h.test", "GET", r".*",
                     lambda req, state: HttpResponse.text("ok")),),
        )
        assert network.trace.urls() == ["http://h.test/u/bob/x/3"]

    def test_base64_and_encode(self):
        def build(m):
            enc = m.scall("android.util.Base64", "encodeToString", ["abc", 0],
                          returns="java.lang.String")
            m.putstatic("rt.App", "captured", enc)

        rt, _ = run_app(build)
        assert rt.statics[("rt.App", "captured")] == "YWJj"


class TestDatabaseRuntime:
    def test_insert_then_query(self):
        def build(m):
            cv = m.new("android.content.ContentValues", [])
            m.vcall(cv, "put", ["url", "http://cdn.test/a.jpg"])
            helper = m.local("helper",
                             "android.database.sqlite.SQLiteOpenHelper")
            m.assign(helper, None)
            db = m.vcall(helper, "getWritableDatabase", [],
                         returns="android.database.sqlite.SQLiteDatabase")
            m.vcall(db, "insert", ["images", None, cv], returns="long")
            cur = m.vcall(db, "rawQuery", ["SELECT url FROM images", None],
                          returns="android.database.Cursor")
            m.vcall(cur, "moveToFirst", [], returns="boolean")
            url = m.vcall(cur, "getString", [0], returns="java.lang.String")
            m.putstatic("rt.App", "row", url)

        rt, _ = run_app(build)
        assert rt.statics[("rt.App", "row")] == "http://cdn.test/a.jpg"

    def test_column_index_lookup(self):
        def build(m):
            cv = m.new("android.content.ContentValues", [])
            m.vcall(cv, "put", ["a", "1"])
            m.vcall(cv, "put", ["b", "2"])
            helper = m.local("helper",
                             "android.database.sqlite.SQLiteOpenHelper")
            m.assign(helper, None)
            db = m.vcall(helper, "getWritableDatabase", [],
                         returns="android.database.sqlite.SQLiteDatabase")
            m.vcall(db, "insert", ["t", None, cv], returns="long")
            cur = m.vcall(db, "rawQuery", ["SELECT a, b FROM t", None],
                          returns="android.database.Cursor")
            m.vcall(cur, "moveToFirst", [], returns="boolean")
            idx = m.vcall(cur, "getColumnIndex", ["b"], returns="int")
            val = m.vcall(cur, "getString", [idx], returns="java.lang.String")
            m.putstatic("rt.App", "b", val)

        rt, _ = run_app(build)
        assert rt.statics[("rt.App", "b")] == "2"


class TestGsonRuntime:
    def test_reflection_roundtrip(self):
        pb = ProgramBuilder()
        dto = pb.class_("rt.Dto")
        dto.field("name", "java.lang.String")
        dto.field("age", "int")
        cb = pb.class_("rt.App", superclass="android.app.Activity")
        m = cb.method("go")
        obj = m.new("rt.Dto", [], into="dto")
        m.putfield(obj, "name", "alice", cls="rt.Dto")
        m.putfield(obj, "age", 30, cls="rt.Dto")
        gson = m.new("com.google.gson.Gson", [], into="gson")
        text = m.vcall(gson, "toJson", [obj], returns="java.lang.String")
        m.putstatic("rt.App", "json", text)
        from repro.ir.statements import AssignStmt
        from repro.ir.types import parse_type
        from repro.ir.values import ClassConst, InvokeExpr, MethodSig

        back = m.fresh("rt.Dto", "back")
        sig = MethodSig("com.google.gson.Gson", "fromJson",
                        (parse_type("java.lang.String"),
                         parse_type("java.lang.Class")),
                        parse_type("rt.Dto"))
        m.emit(AssignStmt(back, InvokeExpr("virtual", sig, gson,
                                           (text, ClassConst("rt.Dto")))))
        name2 = m.getfield(back, "name", cls="rt.Dto")
        m.putstatic("rt.App", "name2", name2)
        m.ret_void()
        program = pb.build()
        apk = Apk(manifest=Manifest(package="rt"), program=program,
                  entrypoints=[EntryPoint("<rt.App: void go()>",
                                          TriggerKind.UI, "go")])
        rt = Runtime(apk, Network())
        rt.fire_entrypoint(apk.entrypoints[0])
        assert json.loads(rt.statics[("rt.App", "json")]) == {
            "name": "alice", "age": 30}
        assert rt.statics[("rt.App", "name2")] == "alice"


class TestXmlRuntime:
    def test_dom_navigation(self):
        def build(m):
            dbf = m.scall("javax.xml.parsers.DocumentBuilderFactory",
                          "newInstance", [],
                          returns="javax.xml.parsers.DocumentBuilderFactory")
            builder = m.vcall(dbf, "newDocumentBuilder", [],
                              returns="javax.xml.parsers.DocumentBuilder")
            doc = m.vcall(builder, "parse",
                          ['<r><item id="7">hello</item></r>'],
                          returns="org.w3c.dom.Document")
            nl = m.vcall(doc, "getElementsByTagName", ["item"],
                         returns="org.w3c.dom.NodeList")
            el = m.vcall(nl, "item", [0], returns="org.w3c.dom.Element")
            text = m.vcall(el, "getTextContent", [], returns="java.lang.String")
            attr = m.vcall(el, "getAttribute", ["id"],
                           returns="java.lang.String")
            m.putstatic("rt.App", "text", text)
            m.putstatic("rt.App", "attr", attr)

        rt, _ = run_app(build)
        assert rt.statics[("rt.App", "text")] == "hello"
        assert rt.statics[("rt.App", "attr")] == "7"


class TestUrlConnRuntime:
    def test_post_with_body(self):
        seen = {}

        def handler(req, state):
            seen["body"] = req.body
            seen["ctype"] = req.headers.get("Content-Type")
            return HttpResponse.json_response({"ok": 1})

        def build(m):
            u = m.new("java.net.URL", ["http://h.test/upload"])
            conn = m.vcall(u, "openConnection", [],
                           returns="java.net.HttpURLConnection")
            m.vcall(conn, "setRequestMethod", ["POST"])
            m.vcall(conn, "setRequestProperty",
                    ["Content-Type", "application/json"])
            out = m.vcall(conn, "getOutputStream", [],
                          returns="java.io.OutputStream")
            writer = m.new("java.io.OutputStreamWriter", [out])
            m.vcall(writer, "write", ['{"k":1}'])
            m.vcall(writer, "flush", [])
            m.vcall(conn, "getInputStream", [], returns="java.io.InputStream")

        run_app(build, routes=(("h.test", "POST", r"/upload", handler),))
        assert seen["body"] == '{"k":1}'
        assert seen["ctype"] == "application/json"


class TestVolleyRuntime:
    def test_listener_receives_parsed_json(self):
        pb = ProgramBuilder()
        listener = pb.class_("rt.Listener",
                             interfaces=("com.android.volley.Response$Listener",))
        lm = listener.method("onResponse", params=["org.json.JSONObject"])
        token = lm.vcall(lm.param(0), "getString", ["token"],
                         returns="java.lang.String")
        lm.putstatic("rt.App", "token", token)
        lm.ret_void()
        cb = pb.class_("rt.App", superclass="android.app.Activity")
        m = cb.method("go")
        lobj = m.new("rt.Listener", [], into="listener")
        req = m.new("com.android.volley.toolbox.JsonObjectRequest",
                    [0, "http://h.test/session", lobj])
        queue = m.scall("com.android.volley.toolbox.Volley", "newRequestQueue",
                        [m.this], returns="com.android.volley.RequestQueue")
        m.vcall(queue, "add", [req], returns="com.android.volley.Request")
        m.ret_void()
        program = pb.build()
        apk = Apk(manifest=Manifest(package="rt"), program=program,
                  entrypoints=[EntryPoint("<rt.App: void go()>",
                                          TriggerKind.UI, "go")])
        network = Network()
        server = ScriptedServer("h.test")
        server.add("GET", r"/session",
                   lambda req, state: HttpResponse.json_response(
                       {"token": "vt-5"}))
        network.register("h.test", server)
        rt = Runtime(apk, network)
        rt.fire_entrypoint(apk.entrypoints[0])
        assert rt.statics[("rt.App", "token")] == "vt-5"
