"""Tests for the §4 extensions: intent modeling and direct-socket support.

Both are sketched as future work in the paper ("Extractocol can be extended
to support most of them"); here they exist behind config flags, off by
default so the baseline reproduces the paper's misses.
"""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Extractocol
from repro.apk.manifest import Manifest
from repro.apk.model import Apk, EntryPoint, TriggerKind
from repro.ir.builder import ProgramBuilder


# ------------------------------------------------------------------ intents
def intent_app() -> Apk:
    """SenderActivity packs a city name into an Intent; DetailActivity's
    onNewIntent builds the request URL from the extra."""
    pb = ProgramBuilder()
    sender = pb.class_("com.intents.SenderActivity",
                       superclass="android.app.Activity")
    m = sender.method("onPickCity", params=["java.lang.String"])
    intent = m.local("intent", "android.content.Intent")
    from repro.ir.types import class_t, parse_type
    from repro.ir.values import ClassConst, NewExpr, InvokeExpr, MethodSig
    m.assign(intent, NewExpr(class_t("android.content.Intent")))
    from repro.ir.statements import InvokeStmt

    init_sig = MethodSig(
        "android.content.Intent", "<init>",
        (parse_type("java.lang.Object"), parse_type("java.lang.Class")),
        parse_type("void"),
    )
    m.emit(InvokeStmt(InvokeExpr(
        "special", init_sig, intent,
        (m.this, ClassConst("com.intents.DetailActivity")),
    )))
    m.vcall(intent, "putExtra", ["city", m.param(0)],
            returns="android.content.Intent")
    m.vcall(m.this, "startActivity", [intent], on="android.app.Activity")
    m.ret_void()

    detail = pb.class_("com.intents.DetailActivity",
                       superclass="android.app.Activity")
    h = detail.method("onNewIntent", params=["android.content.Intent"])
    city = h.vcall(h.param(0), "getStringExtra", ["city"],
                   returns="java.lang.String", into="city")
    url = h.concat("http://weather.intents.test/city/", city, into="url")
    req = h.new("org.apache.http.client.methods.HttpGet", [url])
    client = h.local("client", "org.apache.http.client.HttpClient")
    h.assign(client, None)
    h.vcall(client, "execute", [req], returns="org.apache.http.HttpResponse",
            on="org.apache.http.client.HttpClient")
    h.ret_void()

    program = pb.build()
    return Apk(
        manifest=Manifest(package="com.intents",
                          permissions=["android.permission.INTERNET"]),
        program=program,
        entrypoints=[
            EntryPoint(
                method_id="<com.intents.SenderActivity: void onPickCity(java.lang.String)>",
                kind=TriggerKind.UI,
                name="pick city",
            )
        ],
    )


class TestIntentExtension:
    def test_baseline_misses_intent_flow(self):
        """Without the extension, the intent-delivered URL part is lost and
        the handler's request never surfaces from the sender's context."""
        report = Extractocol(AnalysisConfig(model_intents=False)).analyze(
            intent_app()
        )
        all_txns = report.transactions + report.unidentified
        assert not any(
            "weather.intents.test" in t.request.uri_regex.replace("\\", "")
            for t in all_txns
        )

    def test_extension_resolves_intent_flow(self):
        report = Extractocol(AnalysisConfig(model_intents=True)).analyze(
            intent_app()
        )
        txn = next(
            t for t in report.transactions
            if "weather.intents.test" in t.request.uri_regex.replace("\\", "")
        )
        assert txn.request.method == "GET"
        # the extra's provenance (user input) survives the intent hop
        assert "user_input" in txn.request.origins

    def test_extension_off_by_default(self):
        assert AnalysisConfig().model_intents is False
        assert AnalysisConfig().model_sockets is False


# ------------------------------------------------------------------ sockets
def socket_app() -> Apk:
    """A text-protocol client over a raw java.net.Socket (IRC-ish)."""
    pb = ProgramBuilder()
    cb = pb.class_("com.sockets.Client", superclass="android.app.Activity")
    m = cb.method("sendCommand", params=["java.lang.String"])
    sock = m.new("java.net.Socket", ["irc.sockets.test", 6667], into="sock")
    out = m.vcall(sock, "getOutputStream", [], returns="java.io.OutputStream",
                  into="out")
    writer = m.new("java.io.OutputStreamWriter", [out], into="writer")
    line = m.concat("NICK ", m.param(0), "\r\n", into="line")
    m.vcall(writer, "write", [line])
    m.vcall(writer, "flush", [])
    stream = m.vcall(sock, "getInputStream", [], returns="java.io.InputStream",
                     into="stream")
    reader = m.new("java.io.BufferedReader", [stream], into="reader")
    m.vcall(reader, "readLine", [], returns="java.lang.String")
    m.vcall(sock, "close", [])
    m.ret_void()
    program = pb.build()
    return Apk(
        manifest=Manifest(package="com.sockets",
                          permissions=["android.permission.INTERNET"]),
        program=program,
        entrypoints=[
            EntryPoint(
                method_id="<com.sockets.Client: void sendCommand(java.lang.String)>",
                kind=TriggerKind.UI,
                name="send command",
            )
        ],
    )


class TestSocketExtension:
    def test_baseline_does_not_reconstruct_sockets(self):
        """The paper's prototype 'does not handle direct use of
        java.net.socket' — without the flag no meaningful signature exists."""
        report = Extractocol(AnalysisConfig(model_sockets=False)).analyze(
            socket_app()
        )
        assert not any(
            "irc.sockets.test" in t.request.uri_regex.replace("\\", "")
            for t in report.transactions
        )

    def test_extension_reconstructs_text_protocol(self):
        report = Extractocol(AnalysisConfig(model_sockets=True)).analyze(
            socket_app()
        )
        txn = next(
            t for t in report.transactions
            if "socket://irc.sockets.test:6667" in
            t.request.uri_regex.replace("\\", "")
        )
        assert txn.request.method == "RAW"
        body = (txn.request.body_regex or "").replace("\\", "")
        assert "NICK " in body
        assert "user_input" in txn.request.origins

    def test_socket_runs_dynamically(self):
        from repro.runtime.httpstack import HttpResponse, Network
        from repro.runtime.interpreter import Runtime
        from repro.runtime.server import ScriptedServer

        apk = socket_app()
        network = Network()
        server = ScriptedServer("irc.sockets.test:6667")
        server.add("RAW", r"", lambda req, state: HttpResponse.text(
            ":server 001 welcome"))
        network.register("irc.sockets.test:6667", server)
        rt = Runtime(apk, network)
        rt.fire_entrypoint(apk.entrypoints[0])
        assert len(network.trace) == 1
        captured = network.trace.transactions[0]
        assert captured.request.method == "RAW"
        assert captured.request.body.startswith("NICK ")
        assert captured.response.body.startswith(":server")
