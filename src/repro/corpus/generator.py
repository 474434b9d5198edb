"""Generate corpus apps from endpoint specifications.

Hand-writing thirty-four apps' worth of IR is error-prone; the generator
emits the same code shapes a hand-written app uses — StringBuilder URI
construction, Apache/Volley/URLConnection transports, JSON/XML parsing,
login token flows, timers, Handler-posted runnables and intent-fed ad
chains — from a compact :class:`GenEndpoint` list, together with the
matching scripted server and ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import partial

from ..apk.manifest import Manifest
from ..apk.model import Apk, EntryPoint, TriggerKind
from ..apk.resources import Resources
from ..ir.builder import ClassBuilder, MethodBuilder, ProgramBuilder
from ..runtime.httpstack import HttpResponse, Network
from .base import AppSpec, EndpointTruth, GroundTruth


@dataclass
class GenEndpoint:
    """One endpoint to generate.

    Value kinds for ``query`` / ``body`` / ``header`` values:
    ``const:<text>``, ``int:<n>``, ``input`` (user input), ``field:<name>``
    (app state, e.g. a login token), ``resource:<name>``, ``clock``,
    ``device``, ``random``.
    """

    name: str
    method: str = "GET"
    path: str = "/api/endpoint"
    host: str | None = None
    query: tuple[tuple[str, str], ...] = ()
    body: tuple[tuple[str, str], ...] = ()
    body_format: str | None = None  # "json" | "form"
    headers: tuple[tuple[str, str], ...] = ()
    #: server JSON payload (also defines what fuzzing traffic contains)
    response: dict | None = None
    response_xml: str | None = None
    binary_response: bool = False
    #: top-level JSON keys / XML tags the app reads from the response
    reads: tuple[str, ...] = ()
    xml_reads: tuple[str, ...] = ()
    #: plain-text response rendered into a TextView (a processed pair
    #: without structured format)
    display_text: bool = False
    text_response: str | None = None
    #: response key -> app field to store it in (e.g. {"token": "token"})
    store: dict[str, str] = dc_field(default_factory=dict)
    trigger: TriggerKind = TriggerKind.UI
    requires_login: bool = False
    side_effect: bool = False
    custom_ui: bool = False
    #: intent-fed, two-async-hop URL construction — Extractocol misses it
    via_intent: bool = False


@dataclass
class GenApp:
    key: str
    name: str
    kind: str  # "open" | "closed"
    package: str
    host: str
    https: bool = True
    protocol: str = "HTTPS"
    endpoints: list[GenEndpoint] = dc_field(default_factory=list)
    resources: dict[str, str] = dc_field(default_factory=dict)
    filler_methods: int = 12
    transport: str = "apache"  # "apache" | "volley" | "urlconn" | "okhttp"
    #: hand-written additions: receives the emitter, may add classes,
    #: methods, entry points and truth entries (Diode's Figure-3 method,
    #: Kayak's Table-6 signatures, ...)
    custom: object | None = None
    #: extra server routes: (host, method, path_regex, handler)
    extra_routes: tuple = ()
    scope_prefixes: tuple[str, ...] = ()
    notes: str = ""


_JSON_DEFAULT = {"status": "ok", "ts": 1480000000}


class _AppEmitter:
    def __init__(self, spec: GenApp) -> None:
        self.spec = spec
        self.pb = ProgramBuilder()
        self.main_cls = f"{spec.package}.MainActivity"
        self.cb = self.pb.class_(self.main_cls, superclass="android.app.Activity")
        self.resources = Resources()
        for rname, rvalue in spec.resources.items():
            self.resources.add_string(rname, rvalue)
        self.entrypoints: list[EntryPoint] = []
        self.truth = GroundTruth()
        self._fields: set[str] = set()
        self._runnable_count = 0

    # -- helpers -------------------------------------------------------------
    def _ensure_field(self, name: str) -> str:
        fname = f"f_{name}"
        if fname not in self._fields:
            self.cb.field(fname, "java.lang.String")
            self._fields.add(fname)
        return fname

    def _base_url(self, ep: GenEndpoint) -> str:
        scheme = "https" if self.spec.https else "http"
        host = ep.host or self.spec.host
        return f"{scheme}://{host}{ep.path}"

    def _value(self, m: MethodBuilder, kind: str, input_param):
        if kind.startswith("const:"):
            return kind[len("const:"):]
        if kind.startswith("int:"):
            return int(kind[len("int:"):])
        if kind == "input":
            return input_param
        if kind.startswith("field:"):
            fname = self._ensure_field(kind[len("field:"):])
            return m.getfield(m.this, fname, cls=self.main_cls)
        if kind.startswith("resource:"):
            rname = kind[len("resource:"):]
            rid = self.resources.string_id(rname)
            res = m.vcall(
                m.this, "getResources", [], returns="android.content.res.Resources",
                on="android.app.Activity",
            )
            return m.vcall(res, "getString", [rid], returns="java.lang.String")
        if kind == "clock":
            return m.scall("java.lang.System", "currentTimeMillis", [],
                           returns="long")
        if kind == "device":
            return m.scall("android.provider.Settings$Secure", "getString",
                           ["android_id"], returns="java.lang.String")
        if kind == "random":
            rnd = m.new("java.util.Random")
            return m.vcall(rnd, "nextInt", [1000000], returns="int")
        raise ValueError(f"unknown value kind {kind!r}")

    def _needs_input(self, ep: GenEndpoint) -> bool:
        kinds = [k for _, k in ep.query] + [k for _, k in ep.body]
        return "input" in kinds

    # -- endpoint emission -----------------------------------------------------
    def emit(self) -> None:
        seen: set[str] = set()
        for ep in self.spec.endpoints:
            if ep.name in seen:
                raise ValueError(
                    f"{self.spec.key}: duplicate endpoint name {ep.name!r} — "
                    f"each endpoint emits an ep_<name>/onAd_<name> method and "
                    f"an entry point; a second one would silently shadow the "
                    f"first"
                )
            seen.add(ep.name)
            if ep.via_intent:
                self._emit_intent_endpoint(ep)
            else:
                self._emit_plain_endpoint(ep)
            self._record_truth(ep)
        if self.spec.custom is not None:
            self.spec.custom(self)
        self._emit_filler()

    def _register_entrypoint(self, entry: EntryPoint) -> None:
        """Collision guard: entry-point names and method ids must be unique
        (duplicate names make reports/ground truth ambiguous; a duplicate
        method id means two endpoints emitted into one method)."""
        for existing in self.entrypoints:
            if existing.name == entry.name:
                raise ValueError(
                    f"{self.spec.key}: duplicate entry-point name "
                    f"{entry.name!r} (already bound to {existing.method_id})"
                )
            if existing.method_id == entry.method_id:
                raise ValueError(
                    f"{self.spec.key}: duplicate entry-point method "
                    f"{entry.method_id!r} (already registered as "
                    f"{existing.name!r})"
                )
        self.entrypoints.append(entry)

    def add_entrypoint(self, method_name: str, kind: TriggerKind, name: str,
                       *, cls: ClassBuilder | None = None, **flags) -> None:
        """Helper for custom hooks."""
        owner = cls or self.cb
        self._register_entrypoint(
            EntryPoint(
                method_id=str(owner.cls.find_methods(method_name)[0].sig),
                kind=kind,
                name=name,
                **flags,
            )
        )

    def _record_truth(self, ep: GenEndpoint) -> None:
        fuzzable = not (
            ep.side_effect
            or ep.trigger in (TriggerKind.TIMER, TriggerKind.SERVER_PUSH)
        )
        has_login = any("login" in (e.name or "").lower() for e in self.spec.endpoints)
        manual = fuzzable and (not ep.requires_login or has_login)
        auto = (
            fuzzable
            and not ep.requires_login
            and not ep.custom_ui
            and ep.trigger not in (TriggerKind.UI_CUSTOM, TriggerKind.LOCATION)
        )
        body_kind = None
        if ep.body_format == "json":
            body_kind = "json"
        elif ep.body:
            body_kind = "query"
        response_kind = None
        if ep.response is not None and ep.reads:
            response_kind = "json"
        elif ep.response_xml is not None and ep.xml_reads:
            response_kind = "xml"
        elif ep.display_text:
            response_kind = "text"
        self.truth.endpoints.append(
            EndpointTruth(
                name=ep.name,
                method=ep.method,
                request_body=body_kind,
                response_body=response_kind,
                static_visible=not ep.via_intent,
                manual_visible=manual,
                auto_visible=auto,
            )
        )

    def _emit_plain_endpoint(self, ep: GenEndpoint) -> None:
        params = ["java.lang.String"] if self._needs_input(ep) else []
        m = self.cb.method(f"ep_{ep.name}", params=params)
        input_param = m.param(0) if params else None
        url = self._build_url(m, ep, input_param)
        resp = self._emit_transport(m, ep, url, input_param)
        if resp is not None:
            self._emit_response_processing(m, ep, resp)
        m.ret_void()
        self._register_entrypoint(
            EntryPoint(
                method_id=str(
                    self.cb.cls.find_methods(f"ep_{ep.name}")[0].sig
                ),
                kind=ep.trigger,
                name=ep.name,
                requires_login=ep.requires_login,
                side_effect=ep.side_effect,
                custom_ui=ep.custom_ui,
            )
        )

    def _build_url(self, m: MethodBuilder, ep: GenEndpoint, input_param):
        base = self._base_url(ep)
        sb = m.new("java.lang.StringBuilder", [base + ("?" if ep.query else "")])
        first = True
        for key, kind in ep.query:
            prefix = ("" if first else "&") + key + "="
            first = False
            m.vcall(sb, "append", [prefix], returns="java.lang.StringBuilder")
            m.vcall(sb, "append", [self._value(m, kind, input_param)],
                    returns="java.lang.StringBuilder")
        return m.vcall(sb, "toString", [], returns="java.lang.String")

    def _emit_transport(self, m: MethodBuilder, ep: GenEndpoint, url, input_param):
        """Returns the body-string local (or None when no response read)."""
        transport = self.spec.transport
        if transport == "volley" and ep.method in ("GET", "POST"):
            return self._emit_volley(m, ep, url, input_param)
        if transport == "urlconn":
            return self._emit_urlconn(m, ep, url, input_param)
        return self._emit_apache(m, ep, url, input_param)

    def _request_body_value(self, m, ep: GenEndpoint, input_param):
        if not ep.body:
            return None, None
        if ep.body_format == "json":
            obj = m.new("org.json.JSONObject")
            for key, kind in ep.body:
                m.vcall(obj, "put", [key, self._value(m, kind, input_param)],
                        returns="org.json.JSONObject")
            return m.vcall(obj, "toString", [], returns="java.lang.String"), "json"
        # form body
        pairs = m.new("java.util.ArrayList")
        for key, kind in ep.body:
            pair = m.new(
                "org.apache.http.message.BasicNameValuePair",
                [key, self._value(m, kind, input_param)],
            )
            m.vcall(pairs, "add", [pair], returns="boolean")
        return pairs, "form"

    def _emit_apache(self, m: MethodBuilder, ep: GenEndpoint, url, input_param):
        method_cls = {
            "GET": "HttpGet",
            "POST": "HttpPost",
            "PUT": "HttpPut",
            "DELETE": "HttpDelete",
        }[ep.method]
        req = m.new(f"org.apache.http.client.methods.{method_cls}", [url])
        body_value, body_kind = self._request_body_value(m, ep, input_param)
        if body_value is not None:
            if body_kind == "json":
                entity = m.new("org.apache.http.entity.StringEntity", [body_value])
            else:
                entity = m.new(
                    "org.apache.http.client.entity.UrlEncodedFormEntity", [body_value]
                )
            m.vcall(req, "setEntity", [entity])
        for key, kind in ep.headers:
            m.vcall(req, "setHeader", [key, self._value(m, kind, input_param)])
        client = m.local(f"client", "org.apache.http.client.HttpClient")
        m.assign(client, None)
        resp = m.vcall(
            client, "execute", [req], returns="org.apache.http.HttpResponse",
            on="org.apache.http.client.HttpClient",
        )
        if not self._reads_response(ep):
            return None
        return m.scall(
            "org.apache.http.util.EntityUtils", "toString", [resp],
            returns="java.lang.String",
        )

    def _emit_urlconn(self, m: MethodBuilder, ep: GenEndpoint, url, input_param):
        u = m.new("java.net.URL", [url])
        conn = m.vcall(u, "openConnection", [],
                       returns="java.net.HttpURLConnection")
        if ep.method != "GET":
            m.vcall(conn, "setRequestMethod", [ep.method])
        for key, kind in ep.headers:
            m.vcall(conn, "setRequestProperty",
                    [key, self._value(m, kind, input_param)])
        body_value, body_kind = self._request_body_value(m, ep, input_param)
        if body_value is not None and body_kind == "json":
            m.vcall(conn, "setDoOutput", [1])
            out = m.vcall(conn, "getOutputStream", [],
                          returns="java.io.OutputStream")
            writer = m.new("java.io.OutputStreamWriter", [out])
            m.vcall(writer, "write", [body_value])
            m.vcall(writer, "flush", [])
        stream = m.vcall(conn, "getInputStream", [],
                         returns="java.io.InputStream")
        if not self._reads_response(ep):
            return None
        reader = m.new("java.io.BufferedReader", [stream])
        return m.vcall(reader, "readLine", [], returns="java.lang.String")

    def _emit_volley(self, m: MethodBuilder, ep: GenEndpoint, url, input_param):
        """Volley requests deliver the response to a listener class."""
        listener_cls_name = f"{self.spec.package}.Listener_{ep.name}"
        listener_cb = self.pb.class_(
            listener_cls_name,
            interfaces=("com.android.volley.Response$Listener",),
        )
        listener_cb.field("main", self.main_cls)
        lm = listener_cb.method("onResponse", params=["org.json.JSONObject"])
        self._emit_json_reads(lm, ep, lm.param(0), owner=listener_cls_name)
        lm.ret_void()

        method_code = {"GET": 0, "POST": 1, "PUT": 2, "DELETE": 3}[ep.method]
        listener = m.new(listener_cls_name)
        m.putfield(listener, "main", m.this, cls=listener_cls_name)
        args: list = [method_code, url]
        if ep.body and ep.body_format == "json":
            obj = m.new("org.json.JSONObject")
            for key, kind in ep.body:
                m.vcall(obj, "put", [key, self._value(m, kind, input_param)],
                        returns="org.json.JSONObject")
            args.append(obj)
        args.append(listener)
        req = m.new("com.android.volley.toolbox.JsonObjectRequest", args)
        queue = m.scall(
            "com.android.volley.toolbox.Volley", "newRequestQueue", [m.this],
            returns="com.android.volley.RequestQueue",
        )
        m.vcall(queue, "add", [req], returns="com.android.volley.Request")
        return None  # response handled in the listener

    def _reads_response(self, ep: GenEndpoint) -> bool:
        return bool(ep.reads or ep.xml_reads or ep.store or ep.display_text)

    def _emit_response_processing(self, m: MethodBuilder, ep: GenEndpoint, body):
        if ep.display_text:
            view = m.local("view", "android.widget.TextView")
            m.assign(view, None)
            m.vcall(view, "setText", [body])
            return
        if ep.xml_reads:
            dbf = m.scall("javax.xml.parsers.DocumentBuilderFactory", "newInstance",
                          [], returns="javax.xml.parsers.DocumentBuilderFactory")
            builder = m.vcall(dbf, "newDocumentBuilder", [],
                              returns="javax.xml.parsers.DocumentBuilder")
            doc = m.vcall(builder, "parse", [body], returns="org.w3c.dom.Document")
            for tag in ep.xml_reads:
                nl = m.vcall(doc, "getElementsByTagName", [tag],
                             returns="org.w3c.dom.NodeList")
                el = m.vcall(nl, "item", [0], returns="org.w3c.dom.Element")
                m.vcall(el, "getTextContent", [], returns="java.lang.String")
            return
        if ep.reads or ep.store:
            self._emit_json_reads(m, ep, None, body=body)

    def _emit_json_reads(self, m: MethodBuilder, ep: GenEndpoint, parsed,
                         *, body=None, owner: str | None = None):
        if parsed is None:
            parsed = m.new("org.json.JSONObject", [body])
        for key in ep.reads:
            m.vcall(parsed, "getString", [key], returns="java.lang.String")
        for key, fname in ep.store.items():
            value = m.vcall(parsed, "getString", [key], returns="java.lang.String")
            field_name = self._ensure_field(fname)
            if owner is None:
                m.putfield(m.this, field_name, value, cls=self.main_cls)
            else:
                # listener classes write through a reference to the activity
                main = m.getfield(m.this, "main", cls=owner)
                m.putfield(main, field_name, value, cls=self.main_cls)

    # -- intent-fed, two-hop ad endpoints (the §5.1 misses) --------------------
    def _emit_intent_endpoint(self, ep: GenEndpoint) -> None:
        f1 = self._ensure_field(f"{ep.name}_cfg1")
        f2 = self._ensure_field(f"{ep.name}_cfg2")
        f3 = self._ensure_field(f"{ep.name}_cfg3")

        method_cls = {
            "GET": "HttpGet",
            "POST": "HttpPost",
            "PUT": "HttpPut",
            "DELETE": "HttpDelete",
        }[ep.method]
        fetch = self.cb.method(f"adFetch_{ep.name}")
        url = fetch.getfield(fetch.this, f3, cls=self.main_cls)
        req = fetch.new(f"org.apache.http.client.methods.{method_cls}", [url])
        client = fetch.local("client", "org.apache.http.client.HttpClient")
        fetch.assign(client, None)
        fetch.vcall(client, "execute", [req],
                    returns="org.apache.http.HttpResponse",
                    on="org.apache.http.client.HttpClient")
        fetch.ret_void()

        self._runnable_count += 1
        r2_name = f"{self.spec.package}.AdHop2_{self._runnable_count}"
        r2 = self.pb.class_(r2_name, interfaces=("java.lang.Runnable",))
        r2.field("main", self.main_cls)
        r2m = r2.method("run")
        main2 = r2m.getfield(r2m.this, "main", cls=r2_name)
        v2 = r2m.getfield(main2, f2, cls=self.main_cls)
        r2m.putfield(main2, f3, v2, cls=self.main_cls)
        r2m.vcall(main2, f"adFetch_{ep.name}", [], on=self.main_cls)
        r2m.ret_void()

        r1_name = f"{self.spec.package}.AdHop1_{self._runnable_count}"
        r1 = self.pb.class_(r1_name, interfaces=("java.lang.Runnable",))
        r1.field("main", self.main_cls)
        r1m = r1.method("run")
        main1 = r1m.getfield(r1m.this, "main", cls=r1_name)
        v1 = r1m.getfield(main1, f1, cls=self.main_cls)
        r1m.putfield(main1, f2, v1, cls=self.main_cls)
        r2obj = r1m.new(r2_name)
        r1m.putfield(r2obj, "main", main1, cls=r2_name)
        handler = r1m.new("android.os.Handler")
        r1m.vcall(handler, "post", [r2obj], returns="boolean")
        r1m.ret_void()

        on_ad = self.cb.method(f"onAd_{ep.name}", params=["java.lang.String"])
        cfg = on_ad.concat(self._base_url(ep) + "?unit=", on_ad.param(0))
        on_ad.putfield(on_ad.this, f1, cfg, cls=self.main_cls)
        r1obj = on_ad.new(r1_name)
        on_ad.putfield(r1obj, "main", on_ad.this, cls=r1_name)
        handler2 = on_ad.new("android.os.Handler")
        on_ad.vcall(handler2, "post", [r1obj], returns="boolean")
        on_ad.ret_void()

        self._register_entrypoint(
            EntryPoint(
                method_id=str(self.cb.cls.find_methods(f"onAd_{ep.name}")[0].sig),
                kind=TriggerKind.INTENT,
                name=ep.name,
                requires_login=ep.requires_login,
                side_effect=ep.side_effect,
                custom_ui=ep.custom_ui,
            )
        )

    # -- filler code (realistic slice fractions, Fig. 3) ------------------------
    def _emit_filler(self) -> None:
        n = self.spec.filler_methods
        if n <= 0:
            return
        setup = self.cb.method("onCreateSetup")
        for i in range(n):
            setup.call_this(f"util_{i}", [i], returns="int")
        setup.ret_void()
        for i in range(n):
            m = self.cb.method(f"util_{i}", params=["int"], returns="int")
            acc = m.let(f"acc", "int", i)
            for j in range(6):
                nxt = m.binop("+", acc, j + 1)
                m.assign(acc, nxt)
            label = m.concat("item-", acc)
            m.vcall(label, "length", [], returns="int")
            m.ret(acc)
        self._register_entrypoint(
            EntryPoint(
                method_id=str(self.cb.cls.find_methods("onCreateSetup")[0].sig),
                kind=TriggerKind.LIFECYCLE,
                name="setup",
            )
        )


def build_network_for(spec: GenApp) -> Network:
    from ..runtime.server import ScriptedServer

    network = Network()
    servers: dict[str, ScriptedServer] = {}
    for ep in spec.endpoints:
        host = ep.host or spec.host
        server = servers.get(host)
        if server is None:
            server = ScriptedServer(host)
            servers[host] = server
            network.register(host, server)
        path_pattern = _escape_path(ep.path)
        if ep.binary_response:
            server.add(ep.method, path_pattern,
                       lambda req, state: HttpResponse.binary())
        elif ep.response_xml is not None:
            server.add(ep.method, path_pattern,
                       (lambda xml: lambda req, state: HttpResponse.xml_response(xml))(
                           ep.response_xml))
        elif ep.display_text:
            text = ep.text_response or f"rendered page for {ep.name}"
            server.add(ep.method, path_pattern,
                       (lambda t: lambda req, state: HttpResponse.text(t))(text))
        elif ep.response is not None and (ep.reads or ep.store):
            server.add(ep.method, path_pattern,
                       (lambda p: lambda req, state: HttpResponse.json_response(p))(
                           ep.response))
        else:
            # the app never parses this response: a plain page/ack suffices
            server.add(ep.method, path_pattern,
                       (lambda n: lambda req, state: HttpResponse.text(f"ok:{n}"))(
                           ep.name))
    for host, method, pattern, handler in spec.extra_routes:
        server = servers.get(host)
        if server is None:
            server = ScriptedServer(host)
            servers[host] = server
            network.register(host, server)
        server.add(method, pattern, handler)
    return network


def _escape_path(path: str) -> str:
    import re as _re

    return _re.escape(path)


def emit_apk(spec: GenApp) -> Apk:
    """Emit ``spec``'s IR into a fresh :class:`Apk`.

    The only emitter of an APK: corpus keys, ``syn-`` keys, lineage
    versions and :attr:`AppSpec.build_apk` all come through here, one emit
    per APK.  Nothing is memoized, so every call returns a new program."""
    emitter = _AppEmitter(spec)
    emitter.emit()
    return Apk(
        manifest=Manifest(
            package=spec.package,
            label=spec.name,
            activities=[emitter.main_cls],
            permissions=["android.permission.INTERNET"],
        ),
        program=emitter.pb.build(),
        resources=emitter.resources,
        entrypoints=emitter.entrypoints,
    )


def build_generated_app(spec: GenApp) -> AppSpec:
    """Materialise a :class:`GenApp` spec into a corpus :class:`AppSpec`.

    Its ground truth comes from a probe emit, which runs the custom hook
    too (hand-written endpoints contribute their truth entries) and
    validates the spec: a duplicate endpoint or entry point raises
    :class:`ValueError` here."""
    probe = _AppEmitter(spec)
    probe.emit()
    return AppSpec(
        key=spec.key,
        name=spec.name,
        kind=spec.kind,
        protocol=spec.protocol,
        build_apk=partial(emit_apk, spec),
        build_network=partial(build_network_for, spec),
        truth=probe.truth,
        scope_prefixes=spec.scope_prefixes,
        notes=spec.notes,
    )


__all__ = [
    "GenApp",
    "GenEndpoint",
    "build_generated_app",
    "build_network_for",
    "emit_apk",
]
