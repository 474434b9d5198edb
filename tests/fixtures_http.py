"""A miniature Diode-style HTTP client program used by analysis tests.

Mirrors the paper's Figure 3: a branchy StringBuilder URI construction,
an Apache HttpClient demarcation point, and JSON response parsing — plus a
second transaction whose request embeds a value from the first response
(for dependency tests).
"""

from __future__ import annotations

from repro.apk.manifest import Manifest
from repro.apk.model import Apk, EntryPoint, TriggerKind
from repro.apk.resources import Resources
from repro.ir.builder import ProgramBuilder

CLS = "com.example.reddit.Fetcher"


def build_mini_reddit() -> Apk:
    pb = ProgramBuilder()
    cb = pb.class_(CLS, superclass="android.app.Activity")
    cb.field("mClient", "org.apache.http.client.HttpClient")
    cb.field("mSubreddit", "java.lang.String")
    cb.field("mAfter", "java.lang.String")

    # void doInBackground() — builds URI, executes, parses.
    m = cb.method("doInBackground")
    sub = m.getfield(m.this, "mSubreddit", cls=CLS)
    sb = m.new("java.lang.StringBuilder", ["http://www.reddit.com"])
    m.if_goto(sub, "==", None, "FRONT")
    m.vcall(sb, "append", ["/r/"], returns="java.lang.StringBuilder")
    m.vcall(sb, "append", [sub], returns="java.lang.StringBuilder")
    m.vcall(sb, "append", [".json?limit="], returns="java.lang.StringBuilder")
    cnt = m.let("cnt", "int", 25)
    m.vcall(sb, "append", [cnt], returns="java.lang.StringBuilder")
    m.goto("EXEC")
    m.label("FRONT")
    m.vcall(sb, "append", ["/.json?"], returns="java.lang.StringBuilder")
    after = m.getfield(m.this, "mAfter", cls=CLS)
    m.if_goto(after, "==", None, "EXEC")
    m.vcall(sb, "append", ["&after="], returns="java.lang.StringBuilder")
    m.vcall(sb, "append", [after], returns="java.lang.StringBuilder")
    m.label("EXEC")
    url = m.vcall(sb, "toString", [], returns="java.lang.String", into="url")
    request = m.new("org.apache.http.client.methods.HttpGet", [url], into="request")
    client = m.getfield(m.this, "mClient", cls=CLS)
    resp = m.vcall(
        client,
        "execute",
        [request],
        returns="org.apache.http.HttpResponse",
        on="org.apache.http.client.HttpClient",
        into="resp",
    )
    entity = m.vcall(
        resp, "getEntity", [], returns="org.apache.http.HttpEntity", into="entity"
    )
    body = m.scall(
        "org.apache.http.util.EntityUtils",
        "toString",
        [entity],
        returns="java.lang.String",
        into="body",
    )
    m.call_this("parseListing", [body])
    m.ret_void()

    # void parseListing(String) — reads JSON keys, stashes the "after" token.
    p = cb.method("parseListing", params=["java.lang.String"])
    json = p.new("org.json.JSONObject", [p.param(0)], into="json")
    after2 = p.vcall(
        json, "getString", ["after"], returns="java.lang.String", into="after2"
    )
    p.putfield(p.this, "mAfter", after2, cls=CLS)
    titles = p.vcall(
        json, "getJSONArray", ["children"], returns="org.json.JSONArray", into="titles"
    )
    n = p.vcall(titles, "length", [], returns="int", into="n")
    i = p.let("i", "int", 0)
    p.label("LOOP")
    p.if_goto(i, ">=", n, "DONE")
    item = p.vcall(titles, "getJSONObject", [i], returns="org.json.JSONObject", into="item")
    title = p.vcall(item, "getString", ["title"], returns="java.lang.String", into="title")
    p.scall("android.util.Log", "d", ["reddit", title])
    i2 = p.binop("+", i, 1)
    p.assign(i, i2)
    p.goto("LOOP")
    p.label("DONE")
    p.ret_void()

    # void loadMore() — a second transaction using mAfter from the response.
    lm = cb.method("loadMore")
    after3 = lm.getfield(lm.this, "mAfter", cls=CLS)
    url2 = lm.concat("http://www.reddit.com/.json?after=", after3, into="url2")
    req2 = lm.new("org.apache.http.client.methods.HttpGet", [url2], into="req2")
    client2 = lm.getfield(lm.this, "mClient", cls=CLS)
    lm.vcall(
        client2,
        "execute",
        [req2],
        returns="org.apache.http.HttpResponse",
        on="org.apache.http.client.HttpClient",
        into="resp2",
    )
    lm.ret_void()

    program = pb.build()
    return Apk(
        manifest=Manifest(
            package="com.example.reddit",
            activities=[CLS],
            permissions=["android.permission.INTERNET"],
        ),
        program=program,
        resources=Resources(),
        entrypoints=[
            EntryPoint(
                method_id=f"<{CLS}: void doInBackground()>",
                kind=TriggerKind.LIFECYCLE,
                name="load front page",
            ),
            EntryPoint(
                method_id=f"<{CLS}: void loadMore()>",
                kind=TriggerKind.UI,
                name="load more",
            ),
        ],
    )
