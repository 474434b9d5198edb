"""Semantic models for ``org.apache.http`` — request objects, entities and
the ``HttpClient.execute`` demarcation point."""

from __future__ import annotations

from ..signature.lang import Const, Term, Unknown, concat
from .avals import ObjAV, RequestAV, RespRef, to_term
from .model import Effect, SemanticModel, UNHANDLED

_METHOD_CLASSES = {
    "org.apache.http.client.methods.HttpGet": "GET",
    "org.apache.http.client.methods.HttpPost": "POST",
    "org.apache.http.client.methods.HttpPut": "PUT",
    "org.apache.http.client.methods.HttpDelete": "DELETE",
    "org.apache.http.client.methods.HttpHead": "HEAD",
}

_REQUEST_CLASSES = tuple(_METHOD_CLASSES) + (
    "org.apache.http.client.methods.HttpUriRequest",
    "org.apache.http.client.methods.HttpRequestBase",
)

_CLIENTS = (
    "org.apache.http.client.HttpClient",
    "org.apache.http.impl.client.DefaultHttpClient",
    "org.apache.http.impl.client.AbstractHttpClient",
    "android.net.http.AndroidHttpClient",
)


def _entity_body(entity) -> tuple[Term | None, str | None]:
    if isinstance(entity, ObjAV) and entity.class_name == "entity":
        value = entity.get("value")
        return (to_term(value) if value is not None else None), entity.get("mime")
    if entity is None:
        return None, None
    return to_term(entity), None


def register(model: SemanticModel) -> None:
    @model.register(tuple(_METHOD_CLASSES), "<init>")
    def request_init(ctx, site, expr, base, args):
        # dispatch matched the receiver's declared type; the invoke's own
        # signature class may still name something else
        method = _METHOD_CLASSES.get(expr.sig.class_name)
        if method is None:
            return UNHANDLED
        uri = to_term(args[0]) if args else Unknown("url")
        return Effect(
            result=None,
            new_base=RequestAV(methods=frozenset({method}), uri=uri),
        )

    @model.register(_REQUEST_CLASSES, "setURI")
    def set_uri(ctx, site, expr, base, args):
        if isinstance(base, RequestAV):
            from dataclasses import replace

            return Effect(result=None, new_base=replace(base, uri=to_term(args[0])))
        return UNHANDLED

    @model.register(_REQUEST_CLASSES, ("setHeader", "addHeader"))
    def set_header(ctx, site, expr, base, args):
        if isinstance(base, RequestAV) and len(args) >= 2:
            name = to_term(args[0])
            key = name.text if isinstance(name, Const) else "*"
            return Effect(result=None, new_base=base.with_header(key, to_term(args[1])))
        return UNHANDLED

    @model.register(_REQUEST_CLASSES, "setEntity")
    def set_entity(ctx, site, expr, base, args):
        if isinstance(base, RequestAV) and args:
            from dataclasses import replace

            body, mime = _entity_body(args[0])
            origins = frozenset()
            if isinstance(args[0], ObjAV):
                origins = args[0].get("origins", frozenset()) or frozenset()
            return Effect(
                result=None,
                new_base=replace(base, body=body, mime=mime, body_origins=origins),
            )
        return UNHANDLED

    # -- entities ---------------------------------------------------------
    @model.register("org.apache.http.entity.StringEntity", "<init>")
    def string_entity(ctx, site, expr, base, args):
        value = to_term(args[0]) if args else Const("")
        return Effect(result=None, new_base=ObjAV("entity", (("value", value),)))

    @model.register("org.apache.http.client.entity.UrlEncodedFormEntity", "<init>")
    def form_entity(ctx, site, expr, base, args):
        """Form entity over a List<NameValuePair>: encode k=v&k=v."""
        from .containers import list_items

        parts: list[Term] = []
        for item in list_items(args[0]) if args else ():
            if isinstance(item, ObjAV) and item.class_name == "pair":
                if parts:
                    parts.append(Const("&"))
                parts.append(to_term(item.get("k", Const("?"))))
                parts.append(Const("="))
                parts.append(to_term(item.get("v", Unknown("str"))))
            else:
                parts.append(Unknown("str"))
        body = concat(*parts) if parts else Unknown("str")
        return Effect(
            result=None,
            new_base=ObjAV(
                "entity",
                (("value", body), ("mime", "application/x-www-form-urlencoded")),
            ),
        )

    @model.register("org.apache.http.message.BasicNameValuePair", "<init>")
    def pair_init(ctx, site, expr, base, args):
        k = to_term(args[0]) if args else Const("?")
        v = to_term(args[1]) if len(args) > 1 else Unknown("str")
        return Effect(result=None, new_base=ObjAV("pair", (("k", k), ("v", v))))

    # -- the demarcation point ------------------------------------------------
    @model.register(_CLIENTS, "execute")
    def client_execute(ctx, site, expr, base, args):
        request = args[0] if args else None
        if not isinstance(request, RequestAV):
            request = RequestAV(uri=to_term(request) if request is not None else Unknown("url"))
        return ctx.record_transaction(site, request)

    @model.register(_CLIENTS, "<init>")
    def client_init(ctx, site, expr, base, args):
        return Effect(result=None, new_base=ObjAV("httpclient"))

    @model.register("android.net.http.AndroidHttpClient", "newInstance")
    def client_new(ctx, site, expr, base, args):
        return ObjAV("httpclient")

    # -- response plumbing --------------------------------------------------------
    @model.register("org.apache.http.HttpResponse", ("getEntity",))
    def get_entity(ctx, site, expr, base, args):
        if isinstance(base, RespRef):
            return base
        return UNHANDLED

    @model.register("org.apache.http.HttpResponse", "getStatusLine")
    def status_line(ctx, site, expr, base, args):
        return ObjAV("statusline")

    @model.register("org.apache.http.StatusLine", "getStatusCode")
    def status_code(ctx, site, expr, base, args):
        return Unknown("int")

    @model.register("org.apache.http.HttpEntity", ("getContent", "getContentLength"))
    def entity_content(ctx, site, expr, base, args):
        if isinstance(base, RespRef):
            if expr.sig.name == "getContentLength":
                return Unknown("int")
            return base
        return UNHANDLED

    @model.register("org.apache.http.util.EntityUtils", "toString")
    def entity_to_string(ctx, site, expr, base, args):
        if args and isinstance(args[0], RespRef):
            return args[0]
        return UNHANDLED

    # -- stream readers commonly wrapped around getContent() -------------------
    @model.register(
        ("java.io.InputStreamReader", "java.io.BufferedReader"), "<init>"
    )
    def reader_init(ctx, site, expr, base, args):
        if args and isinstance(args[0], RespRef):
            return Effect(result=None, new_base=args[0])
        return Effect(result=None, new_base=to_term(args[0]) if args else Unknown("any"))

    @model.register("java.io.BufferedReader", "readLine")
    def read_line(ctx, site, expr, base, args):
        if isinstance(base, RespRef):
            return base
        return UNHANDLED

    @model.register(("java.io.InputStream",), "read")
    def stream_read(ctx, site, expr, base, args):
        return Unknown("int")


__all__ = ["register"]
