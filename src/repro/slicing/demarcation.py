"""Demarcation points (DPs): the HTTP access functions where bidirectional
slicing starts (paper §3.1).

A DP separates the backward (request) slice from the forward (response)
slice.  The registry below mirrors the paper's implementation: "39
demarcation points from 16 classes and popular http libraries, including
org.apache.http, android.net.http, android.volley, java.net,
android.media, retrofit, BeeFramework and okhttp".

Three response-delivery shapes exist:

* ``return`` — synchronous APIs (``HttpClient.execute`` returns the response),
* ``base``   — connection-style APIs (``HttpURLConnection.getInputStream``),
* ``listener`` — callback APIs (Volley/OkHttp-async/Retrofit-async): the
  response arrives as a parameter of an app-defined callback method; the
  scanner resolves the listener object's static type to find it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.callgraph import CallGraph
from ..ir.program import Program
from ..ir.statements import StmtRef
from ..ir.values import InvokeExpr, Local, Value


@dataclass(frozen=True)
class DPSpec:
    """One registered demarcation point (a library method)."""

    class_name: str
    method_name: str
    #: where the request object is: "arg<i>", "base", or "none"
    request: str = "arg0"
    #: where the response is: "return", "base", "listener:<argi>", or "none"
    response: str = "return"
    #: HTTP method when the API pins it (MediaPlayer GETs, etc.)
    method_hint: str | None = None
    #: how the response is consumed when the API implies it
    consumer: str | None = None
    transport: str = "http"


#: Callback subsignatures searched on listener classes, per library family.
LISTENER_CALLBACKS: dict[str, tuple[str, int]] = {
    # family -> (callback method name, response parameter index)
    "volley": ("onResponse", 0),
    "okhttp": ("onResponse", 1),  # onResponse(Call, Response)
    "retrofit": ("onResponse", 1),  # onResponse(Call, Response)
    "bee": ("onSuccess", 0),
    "rx": ("call", 0),  # rx.functions.Action1<T>.call(T)
}


DEFAULT_DEMARCATION_POINTS: tuple[DPSpec, ...] = (
    # -- org.apache.http (4 classes) --------------------------------------
    DPSpec("org.apache.http.client.HttpClient", "execute"),
    DPSpec("org.apache.http.impl.client.DefaultHttpClient", "execute"),
    DPSpec("org.apache.http.impl.client.AbstractHttpClient", "execute"),
    DPSpec("android.net.http.AndroidHttpClient", "execute"),
    # -- java.net ----------------------------------------------------------
    DPSpec("java.net.URL", "openConnection", request="base", response="return"),
    DPSpec("java.net.URL", "openStream", request="base", response="return",
           method_hint="GET"),
    DPSpec("java.net.HttpURLConnection", "getInputStream", request="base",
           response="return"),
    DPSpec("java.net.HttpURLConnection", "getOutputStream", request="base",
           response="none"),
    DPSpec("java.net.URLConnection", "getInputStream", request="base",
           response="return"),
    # -- volley --------------------------------------------------------------
    DPSpec("com.android.volley.RequestQueue", "add", request="arg0",
           response="listener:volley"),
    # -- okhttp ----------------------------------------------------------------
    DPSpec("okhttp3.OkHttpClient", "newCall", request="arg0", response="return"),
    DPSpec("okhttp3.Call", "execute", request="base", response="return"),
    DPSpec("okhttp3.Call", "enqueue", request="base", response="listener:okhttp"),
    DPSpec("com.squareup.okhttp.OkHttpClient", "newCall", request="arg0",
           response="return"),
    DPSpec("com.squareup.okhttp.Call", "execute", request="base", response="return"),
    # -- retrofit -----------------------------------------------------------------
    DPSpec("retrofit2.Call", "execute", request="base", response="return"),
    DPSpec("retrofit2.Call", "enqueue", request="base", response="listener:retrofit"),
    # -- google-http-java-client ---------------------------------------------------
    DPSpec("com.google.api.client.http.HttpRequest", "execute", request="base",
           response="return"),
    # -- BeeFramework ---------------------------------------------------------------
    DPSpec("com.beeframework.model.BeeQuery", "sendRequest", request="base",
           response="listener:bee"),
    # -- rx.android style ----------------------------------------------------------
    DPSpec("rx.Observable", "subscribe", request="base", response="listener:rx"),
    # -- android.media: URL playback is an HTTP GET whose body feeds the player
    DPSpec("android.media.MediaPlayer", "setDataSource", request="arg0",
           response="none", method_hint="GET", consumer="media_player"),
    # -- direct sockets (§4 extension; modeled when model_sockets is on) ----------
    DPSpec("java.net.Socket", "getInputStream", request="base",
           response="return", transport="socket"),
    DPSpec("java.net.Socket", "getOutputStream", request="base",
           response="none", transport="socket"),
    # -- webview-style loads -----------------------------------------------------
    DPSpec("android.webkit.WebView", "loadUrl", request="arg0", response="none",
           method_hint="GET", consumer="webview"),
)


@dataclass
class DPInstance:
    """A demarcation point found at a concrete call site."""

    site: StmtRef
    spec: DPSpec
    #: (stmt, value) seeds for backward (request) slicing
    request_seeds: list[tuple[StmtRef, Value]] = field(default_factory=list)
    #: (stmt, value) seeds for forward (response) slicing
    response_seeds: list[tuple[StmtRef, Value]] = field(default_factory=list)
    #: listener class resolved for callback-style DPs (diagnostics)
    listener_class: str | None = None

    @property
    def key(self) -> str:
        return f"{self.spec.class_name}.{self.spec.method_name}@{self.site}"


class DemarcationRegistry:
    def __init__(self, specs: tuple[DPSpec, ...] = DEFAULT_DEMARCATION_POINTS) -> None:
        self.specs = specs
        self._index: dict[tuple[str, str], DPSpec] = {
            (s.class_name, s.method_name): s for s in specs
        }

    def lookup(self, class_name: str, method_name: str) -> DPSpec | None:
        return self._index.get((class_name, method_name))

    def class_count(self) -> int:
        return len({s.class_name for s in self.specs})

    def __len__(self) -> int:
        return len(self.specs)


def _resolve_seed(expr: InvokeExpr, where: str) -> Value | None:
    if where == "base":
        return expr.base
    if where.startswith("arg"):
        idx = int(where[3:])
        return expr.args[idx] if idx < len(expr.args) else None
    return None


def scan_demarcation_points(
    program: Program,
    callgraph: CallGraph,
    registry: DemarcationRegistry | None = None,
) -> list[DPInstance]:
    """Find every demarcation-point call site in the program.

    For listener-style DPs the scanner resolves the response seed by finding
    the app callback class:  it inspects the static types of values flowing
    into the request object's constructor and of the DP call's arguments,
    and picks program classes defining the family's callback subsignature.
    """
    registry = registry or DemarcationRegistry()
    instances: list[DPInstance] = []
    for ref, expr in sorted(
        callgraph.library_sites.items(), key=lambda kv: (kv[0].method_id, kv[0].index)
    ):
        receiver = expr.sig.class_name
        if isinstance(expr.base, Local):
            receiver = expr.base.type.name
        spec = registry.lookup(receiver, expr.sig.name) or registry.lookup(
            expr.sig.class_name, expr.sig.name
        )
        if spec is None:
            continue
        inst = DPInstance(site=ref, spec=spec)
        req_value = _resolve_seed(expr, spec.request)
        if req_value is not None:
            inst.request_seeds.append((ref, req_value))
        if spec.response == "return":
            method = program.method_by_id(ref.method_id)
            stmt = method.stmt_at(ref.index)
            result = next((d for d in stmt.defs() if isinstance(d, Local)), None)
            if result is not None:
                inst.response_seeds.append((ref, result))
        elif spec.response.startswith("listener:"):
            family = spec.response.split(":", 1)[1]
            _attach_listener_seeds(program, callgraph, inst, family)
        instances.append(inst)
    return instances


def _attach_listener_seeds(
    program: Program, callgraph: CallGraph, inst: DPInstance, family: str
) -> None:
    """Resolve callback-style responses to the app listener method's param."""
    callback_name, param_idx = LISTENER_CALLBACKS[family]
    candidates: set[str] = set()
    # Types of the DP call's own arguments (e.g. Call.enqueue(callback)).
    site_stmt = program.method_by_id(inst.site.method_id).stmt_at(inst.site.index)
    expr = site_stmt.invoke
    assert expr is not None
    for arg in expr.args:
        if isinstance(arg, Local) and program.has_class(arg.type.name):
            candidates.add(arg.type.name)
    # Types flowing into the request object's constructor, for APIs where the
    # listener is a constructor argument (Volley's JsonObjectRequest).
    req_value = expr.args[0] if expr.args else expr.base
    if isinstance(req_value, Local):
        # locals compare by name, which is unique within a body
        req_name = req_value.name
        caller = program.method_by_id(inst.site.method_id)
        assert caller.body is not None
        for stmt in caller.body:
            call = stmt.invoke
            if call is None or call.sig.name != "<init>":
                continue
            base = call.base
            if not isinstance(base, Local) or base.name != req_name:
                continue
            for arg in call.args:
                if isinstance(arg, Local) and program.has_class(arg.type.name):
                    candidates.add(arg.type.name)
    for cls_name in sorted(candidates):
        cls = program.class_of(cls_name)
        if cls is None:
            continue
        for method in cls.find_methods(callback_name):
            if method.body is None or param_idx >= len(method.param_locals):
                continue
            param = method.param_locals[param_idx]
            # Seed at the identity statement that binds the parameter.
            for stmt in method.body:
                if any(
                    isinstance(d, Local) and d.name == param.name
                    for d in stmt.defs()
                ):
                    inst.response_seeds.append((method.stmt_ref(stmt), param))
                    break
            inst.listener_class = cls_name
            # Response also flows through the listener call edge; register it
            # so slices (and pairing) see the implicit control transfer.
            callgraph.add_implicit_edge(inst.site, method.method_id, f"{family}-listener")


__all__ = [
    "DEFAULT_DEMARCATION_POINTS",
    "DPInstance",
    "DPSpec",
    "DemarcationRegistry",
    "LISTENER_CALLBACKS",
    "scan_demarcation_points",
]
