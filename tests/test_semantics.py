"""Direct unit tests for the semantic models (§3.2's API semantics),
exercised through small single-method programs."""

from __future__ import annotations

import pytest

from repro.cfg.callgraph import build_callgraph
from repro.ir.builder import ProgramBuilder
from repro.signature.builder import SignatureInterpreter
from repro.signature.lang import Alt, Const, JsonArray, JsonObject, Rep, Unknown
from repro.signature.regex import to_regex


def interp_single(build_method, *, resources=None, params=None, returns="void"):
    """Build a one-method app, run the interpreter, return its transactions."""
    pb = ProgramBuilder()
    cb = pb.class_("t.App", superclass="android.app.Activity")
    m = cb.method("go", params=params or [])
    build_method(m)
    m.ret_void()
    program = pb.build()
    cg = build_callgraph(program)
    interp = SignatureInterpreter(program, cg, resources=resources)
    sig = program.class_of("t.App").find_methods("go")[0].sig
    result = interp.run([(str(sig), "ui")])
    return result


def http_get(m, url):
    req = m.new("org.apache.http.client.methods.HttpGet", [url])
    client = m.local("client", "org.apache.http.client.HttpClient")
    m.assign(client, None)
    return m.vcall(client, "execute", [req],
                   returns="org.apache.http.HttpResponse",
                   on="org.apache.http.client.HttpClient")


class TestStringModels:
    def _uri(self, build):
        result = interp_single(build)
        assert len(result.transactions) == 1
        return result.transactions[0].request.uri

    def test_string_format(self):
        def build(m):
            url = m.scall("java.lang.String", "format",
                          ["https://api.test/u/%s/p/%d", "alice", 7],
                          returns="java.lang.String")
            http_get(m, url)

        uri = self._uri(build)
        assert str(uri) == "(https://api.test/u/alice/p/7)"

    def test_case_folding_on_constants(self):
        def build(m):
            s = m.vcall(m.let("x", "java.lang.String", "MiXeD"), "toLowerCase",
                        [], returns="java.lang.String")
            url = m.concat("https://api.test/", s)
            http_get(m, url)

        assert "mixed" in str(self._uri(build))

    def test_urlencoder_keeps_constants(self):
        def build(m):
            enc = m.scall("java.net.URLEncoder", "encode", ["a b", "UTF-8"],
                          returns="java.lang.String")
            http_get(m, m.concat("https://api.test/?q=", enc))

        assert "a+b" in str(self._uri(build))

    def test_valueof_and_boxing(self):
        def build(m):
            n = m.scall("java.lang.Integer", "toString", [42],
                        returns="java.lang.String")
            http_get(m, m.concat("https://api.test/item/", n))

        assert "item/42" in str(self._uri(build))

    def test_clock_and_random_are_wildcards_with_origin(self):
        def build(m):
            now = m.scall("java.lang.System", "currentTimeMillis", [],
                          returns="long")
            http_get(m, m.concat("https://api.test/?t=", now))

        uri = self._uri(build)
        unknowns = [t for t in uri.walk() if isinstance(t, Unknown)]
        assert unknowns and unknowns[0].origin == "clock"
        assert unknowns[0].kind == "int"

    def test_substring_on_constants(self):
        def build(m):
            s = m.let("s", "java.lang.String", "prefix-middle-suffix")
            cut = m.vcall(s, "substring", [7, 13], returns="java.lang.String")
            http_get(m, m.concat("https://api.test/", cut))

        assert "middle" in str(self._uri(build))


class TestContainerModels:
    def test_list_tracks_items_for_form_entity(self):
        def build(m):
            pairs = m.new("java.util.ArrayList")
            p1 = m.new("org.apache.http.message.BasicNameValuePair",
                       ["user", "bob"])
            m.vcall(pairs, "add", [p1], returns="boolean")
            p2 = m.new("org.apache.http.message.BasicNameValuePair",
                       ["mode", "full"])
            m.vcall(pairs, "add", [p2], returns="boolean")
            entity = m.new("org.apache.http.client.entity.UrlEncodedFormEntity",
                           [pairs])
            req = m.new("org.apache.http.client.methods.HttpPost",
                        ["https://api.test/login"])
            m.vcall(req, "setEntity", [entity])
            client = m.local("client", "org.apache.http.client.HttpClient")
            m.assign(client, None)
            m.vcall(client, "execute", [req],
                    returns="org.apache.http.HttpResponse",
                    on="org.apache.http.client.HttpClient")

        result = interp_single(build)
        body = result.transactions[0].request.body
        assert str(body) == "(user=bob&mode=full)"

    def test_map_put_get(self):
        def build(m):
            params = m.new("java.util.HashMap")
            m.vcall(params, "put", ["region", "kr"], returns="java.lang.Object")
            region = m.vcall(params, "get", ["region"],
                             returns="java.lang.String")
            http_get(m, m.concat("https://api.test/?r=", region))

        result = interp_single(build)
        assert "r=kr" in str(result.transactions[0].request.uri)


class TestJsonModels:
    def test_nested_put_builds_tree(self):
        def build(m):
            inner = m.new("org.json.JSONObject", [], into="inner")
            m.vcall(inner, "put", ["lat", 37], returns="org.json.JSONObject")
            outer = m.new("org.json.JSONObject", [], into="outer")
            m.vcall(outer, "put", ["loc", inner], returns="org.json.JSONObject")
            body = m.vcall(outer, "toString", [], returns="java.lang.String")
            entity = m.new("org.apache.http.entity.StringEntity", [body])
            req = m.new("org.apache.http.client.methods.HttpPost",
                        ["https://api.test/x"])
            m.vcall(req, "setEntity", [entity])
            client = m.local("client", "org.apache.http.client.HttpClient")
            m.assign(client, None)
            m.vcall(client, "execute", [req],
                    returns="org.apache.http.HttpResponse",
                    on="org.apache.http.client.HttpClient")

        result = interp_single(build)
        body = result.transactions[0].request.body
        assert isinstance(body, JsonObject)
        loc = body.get("loc")
        assert isinstance(loc, JsonObject)
        assert loc.get("lat") is not None

    def test_json_array_request_body(self):
        def build(m):
            arr = m.new("org.json.JSONArray", [], into="arr")
            m.vcall(arr, "put", ["first"], returns="org.json.JSONArray")
            m.vcall(arr, "put", ["second"], returns="org.json.JSONArray")
            body = m.vcall(arr, "toString", [], returns="java.lang.String")
            entity = m.new("org.apache.http.entity.StringEntity", [body])
            req = m.new("org.apache.http.client.methods.HttpPost",
                        ["https://api.test/batch"])
            m.vcall(req, "setEntity", [entity])
            client = m.local("client", "org.apache.http.client.HttpClient")
            m.assign(client, None)
            m.vcall(client, "execute", [req],
                    returns="org.apache.http.HttpResponse",
                    on="org.apache.http.client.HttpClient")

        result = interp_single(build)
        body = result.transactions[0].request.body
        assert isinstance(body, JsonArray)
        assert len(body.fixed) == 2

    def test_gson_reflection_serialization(self):
        pb = ProgramBuilder()
        dto = pb.class_("t.LoginDto")
        dto.field("username", "java.lang.String")
        dto.field("passwd", "java.lang.String")
        cb = pb.class_("t.App", superclass="android.app.Activity")
        m = cb.method("go", params=["java.lang.String"])
        obj = m.new("t.LoginDto", [], into="dto")
        m.putfield(obj, "username", m.param(0), cls="t.LoginDto")
        m.putfield(obj, "passwd", "hunter2", cls="t.LoginDto")
        gson = m.new("com.google.gson.Gson", [], into="gson")
        body = m.vcall(gson, "toJson", [obj], returns="java.lang.String")
        entity = m.new("org.apache.http.entity.StringEntity", [body])
        req = m.new("org.apache.http.client.methods.HttpPost",
                    ["https://api.test/login"])
        m.vcall(req, "setEntity", [entity])
        client = m.local("client", "org.apache.http.client.HttpClient")
        m.assign(client, None)
        m.vcall(client, "execute", [req],
                returns="org.apache.http.HttpResponse",
                on="org.apache.http.client.HttpClient")
        m.ret_void()
        program = pb.build()
        cg = build_callgraph(program)
        interp = SignatureInterpreter(program, cg)
        result = interp.run(
            [("<t.App: void go(java.lang.String)>", "ui")]
        )
        body = result.transactions[0].request.body
        assert isinstance(body, JsonObject)
        keys = {k.text for k, _ in body.entries}
        assert keys == {"username", "passwd"}

    def test_gson_reflection_binding_records_access_tree(self):
        pb = ProgramBuilder()
        dto = pb.class_("t.ProfileDto")
        dto.field("name", "java.lang.String")
        dto.field("karma", "int")
        cb = pb.class_("t.App", superclass="android.app.Activity")
        m = cb.method("go")
        resp = http_get(m, "https://api.test/profile")
        body = m.scall("org.apache.http.util.EntityUtils", "toString", [resp],
                       returns="java.lang.String")
        gson = m.new("com.google.gson.Gson", [], into="gson")
        from repro.ir.values import ClassConst

        bound = m.fresh("t.ProfileDto", "bound")
        from repro.ir.statements import AssignStmt
        from repro.ir.types import parse_type
        from repro.ir.values import InvokeExpr, MethodSig

        sig = MethodSig("com.google.gson.Gson", "fromJson",
                        (parse_type("java.lang.String"),
                         parse_type("java.lang.Class")),
                        parse_type("t.ProfileDto"))
        m.emit(AssignStmt(bound, InvokeExpr("virtual", sig, gson,
                                            (body, ClassConst("t.ProfileDto")))))
        m.ret_void()
        program = pb.build()
        cg = build_callgraph(program)
        interp = SignatureInterpreter(program, cg)
        result = interp.run([("<t.App: void go()>", "ui")])
        txn = result.transactions[0]
        assert txn.acc.kind == "json"
        assert ("name",) in txn.acc.paths()
        assert ("karma",) in txn.acc.paths()


class TestAndroidModels:
    def test_resources_resolve_to_constants(self):
        from repro.apk.resources import Resources

        res = Resources()
        rid = res.add_string("base_url", "https://cfg.test/api")

        def build(m):
            r = m.vcall(m.this, "getResources", [],
                        returns="android.content.res.Resources",
                        on="android.app.Activity")
            base = m.vcall(r, "getString", [rid], returns="java.lang.String")
            http_get(m, m.concat(base, "/v1/feed"))

        result = interp_single(build, resources=res)
        assert "cfg.test/api/v1/feed" in str(result.transactions[0].request.uri)

    def test_shared_preferences_flow(self):
        def build(m):
            prefs = m.vcall(m.this, "getSharedPreferences", ["auth", 0],
                            returns="android.content.SharedPreferences",
                            on="android.app.Activity")
            editor = m.vcall(prefs, "edit", [],
                             returns="android.content.SharedPreferences$Editor")
            m.vcall(editor, "putString", ["token", "tok-99"],
                    returns="android.content.SharedPreferences$Editor")
            m.vcall(editor, "apply", [])
            token = m.vcall(prefs, "getString", ["token", ""],
                            returns="java.lang.String")
            http_get(m, m.concat("https://api.test/?auth=", token))

        result = interp_single(build)
        assert "auth=tok-99" in str(result.transactions[0].request.uri)

    def test_location_origin(self):
        def build(m):
            lm = m.local("lm", "android.location.LocationManager")
            m.assign(lm, None)
            loc = m.vcall(lm, "getLastKnownLocation", ["gps"],
                          returns="android.location.Location",
                          on="android.location.LocationManager")
            lat = m.vcall(loc, "getLatitude", [], returns="double")
            http_get(m, m.concat("https://api.test/?lat=", lat))

        result = interp_single(build)
        uri = result.transactions[0].request.uri
        origins = {t.origin for t in uri.walk() if isinstance(t, Unknown)}
        assert "location" in origins

    def test_webview_loadurl_is_a_transaction(self):
        def build(m):
            view = m.local("view", "android.webkit.WebView")
            m.assign(view, None)
            m.vcall(view, "loadUrl", ["https://m.site.test/page"],
                    on="android.webkit.WebView")

        result = interp_single(build)
        assert len(result.transactions) == 1
        txn = result.transactions[0]
        assert "webview" in txn.acc.consumers


class TestOkHttpModels:
    def test_builder_chain(self):
        def build(m):
            fb = m.new("okhttp3.FormBody$Builder", [], into="fb")
            m.vcall(fb, "add", ["grant", "password"],
                    returns="okhttp3.FormBody$Builder")
            form = m.vcall(fb, "build", [], returns="okhttp3.FormBody")
            rb = m.new("okhttp3.Request$Builder", [], into="rb")
            m.vcall(rb, "url", ["https://api.test/oauth"],
                    returns="okhttp3.Request$Builder")
            m.vcall(rb, "header", ["Accept", "application/json"],
                    returns="okhttp3.Request$Builder")
            m.vcall(rb, "post", [form], returns="okhttp3.Request$Builder")
            req = m.vcall(rb, "build", [], returns="okhttp3.Request")
            client = m.new("okhttp3.OkHttpClient", [], into="client")
            call = m.vcall(client, "newCall", [req], returns="okhttp3.Call")
            resp = m.vcall(call, "execute", [], returns="okhttp3.Response")
            rbody = m.vcall(resp, "body", [], returns="okhttp3.ResponseBody")
            text = m.vcall(rbody, "string", [], returns="java.lang.String")
            j = m.new("org.json.JSONObject", [text])
            m.vcall(j, "getString", ["access_token"],
                    returns="java.lang.String")

        result = interp_single(build)
        txn = result.transactions[0]
        assert txn.request.method == "POST"
        assert "oauth" in str(txn.request.uri)
        assert "grant=password" in str(txn.request.body)
        assert dict(txn.request.headers)["Accept"] == Const("application/json")
        assert ("access_token",) in txn.acc.paths()
