"""Abstract values for signature interpretation.

The signature builder (paper §3.2) abstractly interprets program slices.
Its environment maps locals to *abstract values*:

* :class:`~repro.signature.lang.Term` — strings, numbers-as-text and
  JSON/XML trees under construction (request side),
* :class:`NumAV` — numeric constants kept exact so arithmetic stays precise
  until a value is embedded in a string,
* :class:`NullAV` — Java ``null``,
* :class:`AppObjAV` — an instance of an application class (carries the
  dynamic type set for dispatch and listener resolution),
* :class:`ObjAV` — a modeled library object with named attributes
  (``java.net.URL`` wrapping its address term, a NameValuePair, ...),
* :class:`RequestAV` — an HTTP request being assembled,
* :class:`RespRef` — a node inside one or more HTTP responses; accessing it
  records the access path on the response's accumulator, which is how the
  response *format* is inferred from what the app reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..signature.lang import (
    Const,
    JsonArray,
    JsonObject,
    Term,
    UNKNOWN_ANY,
    Unknown,
    alt,
    concat,
)

AVal = object  # union documented above; Python duck-typing keeps this open


@dataclass(frozen=True, slots=True)
class NumAV:
    value: float | int

    def as_term(self) -> Term:
        v = self.value
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        return Const(str(v))


@dataclass(frozen=True, slots=True)
class NullAV:
    def as_term(self) -> Term:
        return Const("null")


NULL_AV = NullAV()


@dataclass(frozen=True, slots=True)
class AppObjAV:
    classes: frozenset[str]

    @staticmethod
    def of(class_name: str) -> "AppObjAV":
        return AppObjAV(frozenset({class_name}))


@dataclass(frozen=True, slots=True)
class ObjAV:
    class_name: str
    attrs: tuple[tuple[str, object], ...] = ()

    def get(self, name: str, default: object | None = None) -> object | None:
        for k, v in self.attrs:
            if k == name:
                return v
        return default

    def put(self, name: str, value: object) -> "ObjAV":
        out = [(k, v) for k, v in self.attrs if k != name]
        out.append((name, value))
        return ObjAV(self.class_name, tuple(out))


@dataclass(frozen=True, slots=True)
class RequestAV:
    """An HTTP request under construction."""

    methods: frozenset[str] = frozenset({"GET"})
    uri: Term = UNKNOWN_ANY
    headers: tuple[tuple[str, Term], ...] = ()
    body: Term | None = None
    mime: str | None = None
    listener_class: str | None = None
    #: where outgoing body data originates (microphone, camera, file, ...)
    body_origins: frozenset[str] = frozenset()

    def with_header(self, name: str, value: Term) -> "RequestAV":
        return replace(self, headers=self.headers + ((name, value),))

    @property
    def method(self) -> str:
        return sorted(self.methods)[0] if self.methods else "GET"


@dataclass(slots=True)
class ResponseAccumulator:
    """Mutable record of everything the app reads from one response.

    The access tree starts empty; semantic models add paths as the program
    slice touches keys (``getString("relay")`` → ``$.relay: str``).  The
    final response-body signature is the tree rendered as a
    :class:`~repro.signature.lang.JsonObject` (open — responses may carry
    keys the app never reads, §5.1 "some apps do not inspect all keywords").
    """

    txn_id: int
    kind: str = "unknown"  # "json" | "xml" | "text" | "binary" | "unknown"
    root: dict = field(default_factory=dict)
    consumers: set[str] = field(default_factory=set)

    def record_access(self, path: tuple, leaf_kind: str = "str") -> None:
        node = self.root
        for part in path:
            node = node.setdefault(("obj", part), {})
        node[("leaf", leaf_kind)] = {}

    def record_consumer(self, consumer: str) -> None:
        self.consumers.add(consumer)

    def to_term(self) -> Term | None:
        """Render the access tree as a signature term."""
        if self.kind == "binary":
            return None
        if not self.root:
            return None
        return _tree_to_term(self.root)

    def paths(self) -> list[tuple]:
        """All recorded access paths (for tests/diagnostics)."""
        out: list[tuple] = []

        def visit(node: dict, prefix: tuple) -> None:
            for key, child in node.items():
                tag, name = key
                if tag == "leaf":
                    out.append(prefix)
                else:
                    visit(child, prefix + (name,))

        visit(self.root, ())
        return sorted(set(out))


def _tree_to_term(node: dict) -> Term:
    entries = []
    leaf_kinds = []
    array_elem = None
    for key, child in sorted(node.items(), key=lambda kv: str(kv[0])):
        tag, name = key
        if tag == "leaf":
            leaf_kinds.append(name)
        elif name == "[]":
            array_elem = _tree_to_term(child) if child else UNKNOWN_ANY
        else:
            entries.append((Const(str(name)), _tree_to_term(child) if child else UNKNOWN_ANY))
    if array_elem is not None:
        return JsonArray(elem=array_elem)
    if entries:
        return JsonObject(tuple(entries), open_=True)
    if leaf_kinds:
        return Unknown(leaf_kinds[0] if leaf_kinds[0] in ("str", "int", "float", "bool") else "any")
    return UNKNOWN_ANY


@dataclass(frozen=True, slots=True)
class RespRef:
    """A value derived from one or more HTTP responses.

    ``accs`` — accumulator ids; ``path`` — position within the response
    tree (``()`` is the root; ``("songs", "[]", "title")`` a nested key).
    """

    accs: frozenset[int]
    path: tuple = ()

    def child(self, part: object) -> "RespRef":
        return RespRef(self.accs, self.path + (part,))

    def origin_tag(self) -> str:
        path = ".".join(str(p) for p in self.path) or "$"
        acc = ",".join(str(a) for a in sorted(self.accs))
        return f"response:{acc}:{path}"


def to_term(value: AVal) -> Term:
    """Coerce any abstract value to a signature term (for embedding into
    strings and bodies)."""
    if isinstance(value, Term):
        return value
    if isinstance(value, NumAV):
        return value.as_term()
    if isinstance(value, NullAV):
        return value.as_term()
    if isinstance(value, RespRef):
        return Unknown("str", origin=value.origin_tag())
    if isinstance(value, RequestAV):
        return value.uri
    if isinstance(value, ObjAV):
        inner = value.get("value")
        if inner is not None:
            return to_term(inner)
        return UNKNOWN_ANY
    if isinstance(value, AppObjAV):
        return UNKNOWN_ANY
    if value is None:
        return UNKNOWN_ANY
    return UNKNOWN_ANY


def merge_avals(a: AVal, b: AVal) -> AVal:
    """Confluence merge (the signature-database merge of §3.2)."""
    if a is b or a == b:
        return a
    if isinstance(a, RespRef) and isinstance(b, RespRef):
        if a.path == b.path:
            return RespRef(a.accs | b.accs, a.path)
        return Unknown("any", origin=a.origin_tag())
    if isinstance(a, AppObjAV) and isinstance(b, AppObjAV):
        return AppObjAV(a.classes | b.classes)
    if isinstance(a, RequestAV) and isinstance(b, RequestAV):
        return RequestAV(
            methods=a.methods | b.methods,
            uri=alt(a.uri, b.uri),
            headers=_merge_headers(a.headers, b.headers),
            body=_merge_opt_terms(a.body, b.body),
            mime=a.mime if a.mime == b.mime else (a.mime or b.mime),
            listener_class=a.listener_class or b.listener_class,
            body_origins=a.body_origins | b.body_origins,
        )
    if isinstance(a, ObjAV) and isinstance(b, ObjAV) and a.class_name == b.class_name:
        keys = {k for k, _ in a.attrs} | {k for k, _ in b.attrs}
        return ObjAV(
            a.class_name,
            tuple(
                (k, merge_avals(a.get(k, UNKNOWN_ANY), b.get(k, UNKNOWN_ANY)))
                for k in sorted(keys)
            ),
        )
    if isinstance(a, NullAV):
        return b
    if isinstance(b, NullAV):
        return a
    ta, tb = _termish(a), _termish(b)
    if ta is not None and tb is not None:
        return alt(ta, tb)
    return UNKNOWN_ANY


def _termish(v: AVal) -> Term | None:
    if isinstance(v, Term):
        return v
    if isinstance(v, (NumAV, NullAV)):
        return v.as_term()
    return None


def _merge_opt_terms(a: Term | None, b: Term | None) -> Term | None:
    if a is None:
        return b
    if b is None:
        return a
    return alt(a, b)


def _merge_headers(
    a: tuple[tuple[str, Term], ...], b: tuple[tuple[str, Term], ...]
) -> tuple[tuple[str, Term], ...]:
    out: dict[str, Term] = dict(a)
    for name, value in b:
        out[name] = alt(out[name], value) if name in out else value
    return tuple(out.items())


def canon(value: AVal) -> str:
    """Canonical string of an abstract value, for memoization keys."""
    if isinstance(value, Term):
        return f"T:{value}"
    if isinstance(value, NumAV):
        return f"N:{value.value}"
    if isinstance(value, NullAV):
        return "null"
    if isinstance(value, RespRef):
        return f"R:{sorted(value.accs)}:{value.path}"
    if isinstance(value, AppObjAV):
        return f"A:{sorted(value.classes)}"
    if isinstance(value, RequestAV):
        return f"Q:{sorted(value.methods)}:{value.uri}:{value.body}"
    if isinstance(value, ObjAV):
        return f"O:{value.class_name}:{[(k, canon(v)) for k, v in value.attrs]}"
    return "?"


__all__ = [
    "AVal",
    "AppObjAV",
    "NULL_AV",
    "NullAV",
    "NumAV",
    "ObjAV",
    "RequestAV",
    "RespRef",
    "ResponseAccumulator",
    "canon",
    "merge_avals",
    "to_term",
]
