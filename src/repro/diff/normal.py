"""Normalise serialised transactions into comparable views.

The diff operates on the canonical report dict form
(:func:`repro.core.report.report_to_dict`), which renders signatures as
regex/term strings.  This module re-tokenises those strings into the
shapes the matcher and classifier compare:

* URI regexes become ``(scheme, host, path segments, query keys)`` with
  every non-literal region collapsed to a single wildcard sentinel,
* JSON/XML/query body term strings become sorted key tuples (the same
  constant-keyword unit Figure 7 counts),
* dependency strings become parsed :class:`~repro.deps.transactions
  .Dependency` edges.

Renamed classes (an obfuscated rebuild, §5.1) are tolerated by mapping
the *new* snapshot's consumer names back through an inverted
:class:`~repro.apk.rewrite.RenameMap` before comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..deps.transactions import Dependency

#: One collapsed non-literal region of a signature regex.
WILDCARD = "\x00"

_JSON_KEY_RE = re.compile(r"\(([A-Za-z_][\w.\-]*)\): ")
_QUERY_KEY_RE = re.compile(r"([A-Za-z_][\w.\-]*)=")
_XML_TAG_RE = re.compile(r"<([A-Za-z_][\w.\-]*)")


def untokenize(regex: str) -> str:
    """Collapse a signature regex back to literal text with every
    non-literal construct (classes, groups, quantified atoms) replaced by
    a single :data:`WILDCARD` sentinel.

    Signature regexes are machine-generated from a small grammar
    (:mod:`repro.signature.regex`), so this handles exactly the constructs
    that grammar emits — escapes, ``(?:...)`` groups, character classes
    and quantifiers — and degrades conservatively (more wildcard, never
    wrong literals) on anything else.
    """
    s = regex
    if s.startswith("^"):
        s = s[1:]
    if s.endswith("$") and not s.endswith("\\$"):
        s = s[:-1]
    out: list[str] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\":
            if i + 1 < n:
                out.append(s[i + 1])
            i += 2
        elif c == "(":
            depth = 0
            j = i
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == "(":
                    depth += 1
                elif s[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            i = min(j, n - 1) + 1
            if i < n and s[i] in "*+?":
                i += 1
            out.append(WILDCARD)
        elif c == "[":
            j = i + 1
            while j < n and s[j] != "]":
                if s[j] == "\\":
                    j += 1
                j += 1
            i = j + 1
            if i < n and s[i] in "*+?":
                i += 1
            out.append(WILDCARD)
        elif c == ".":
            i += 1
            if i < n and s[i] in "*+?":
                i += 1
            out.append(WILDCARD)
        elif c in "*+?":
            if out:
                out[-1] = WILDCARD
            i += 1
        else:
            out.append(c)
            i += 1
    text = "".join(out)
    while WILDCARD + WILDCARD in text:
        text = text.replace(WILDCARD + WILDCARD, WILDCARD)
    return text


@dataclass(frozen=True)
class UriShape:
    """A URI regex decomposed for structural comparison."""

    scheme: str
    host: str
    segments: tuple[str, ...]
    query_keys: tuple[str, ...]
    #: query chunks without a literal key (wholly dynamic)
    opaque_query: int = 0

    @property
    def is_opaque(self) -> bool:
        """True for URIs with no literal structure at all (``GET (.*)``)."""
        return self.host in ("", WILDCARD) and all(
            seg == WILDCARD for seg in self.segments
        )


def parse_uri(regex: str) -> UriShape:
    text = untokenize(regex)
    scheme, sep, rest = text.partition("://")
    if not sep:
        scheme, rest = "", text
    host, _, path = rest.partition("/")
    path, _, query = path.partition("?")
    if WILDCARD in host:
        # a dynamic host offers no anchor; treat the whole authority as
        # one wildcard segment
        host = WILDCARD if host == WILDCARD else host
    segments = tuple(seg for seg in path.split("/") if seg != "")
    keys: list[str] = []
    opaque = 0
    if query:
        for chunk in query.split("&"):
            key, eq, _ = chunk.partition("=")
            if eq and key and WILDCARD not in key:
                keys.append(key)
            elif chunk:
                opaque += 1
    return UriShape(
        scheme=scheme,
        host=host,
        segments=segments,
        query_keys=tuple(sorted(set(keys))),
        opaque_query=opaque,
    )


def body_keys(body: str | None, kind: str | None) -> tuple[str, ...]:
    """Constant structural keys of a rendered body term: JSON keys, XML
    tags, or query-string keys — sorted and deduplicated."""
    if not body:
        return ()
    if kind == "json" or (kind is None and body.lstrip().startswith("{")):
        found = _JSON_KEY_RE.findall(body)
    elif kind == "xml" or (kind is None and body.lstrip().startswith("<")):
        found = _XML_TAG_RE.findall(body)
    else:
        found = _QUERY_KEY_RE.findall(body)
    return tuple(sorted(set(found)))


@dataclass
class TxnView:
    """One transaction, normalised for matching and classification."""

    txn_id: int
    method: str
    uri_regex: str
    uri: UriShape
    headers: dict[str, str]
    body: str | None
    body_kind: str | None
    body_keys: tuple[str, ...]
    response_kind: str
    response_body: str | None
    response_keys: tuple[str, ...]
    consumers: tuple[str, ...]
    depends_on: tuple[Dependency, ...]
    dynamic: bool

    @property
    def label(self) -> str:
        return f"{self.method} {self.uri_regex}"

    @property
    def identity(self) -> tuple:
        """The exact-match key used by the first pairing round."""
        return (self.method, self.uri_regex, self.body, self.response_body)


def txn_view(data: dict, *, consumer_map: dict[str, str] | None = None) -> TxnView:
    """Build a :class:`TxnView` from one ``report_to_dict`` transaction.

    ``consumer_map`` (old-name ← new-name, i.e. an inverted rename map's
    ``class_map``) translates renamed consumer classes back into the old
    snapshot's namespace so an obfuscated rebuild self-compares clean.
    """
    consumers = list(data.get("consumers", ()))
    if consumer_map:
        consumers = [_map_name(c, consumer_map) for c in consumers]
    return TxnView(
        txn_id=data["id"],
        method=data["method"],
        uri_regex=data["uri_regex"],
        uri=parse_uri(data["uri_regex"]),
        headers=dict(data.get("headers", ())),
        body=data.get("body"),
        body_kind=data.get("body_kind"),
        body_keys=body_keys(data.get("body"), data.get("body_kind")),
        response_kind=data.get("response_kind", "unknown"),
        response_body=data.get("response_body"),
        response_keys=body_keys(
            data.get("response_body"), data.get("response_kind")
        ),
        consumers=tuple(sorted(set(consumers))),
        depends_on=tuple(
            Dependency.parse(d) for d in data.get("depends_on", ())
        ),
        dynamic=data.get("dynamic_uri", False),
    )


def _map_name(name: str, mapping: dict[str, str]) -> str:
    """Map a consumer name through a class rename map.  Consumers are
    class names or dotted ``Class.member`` references; try the full name
    first, then the longest renamed class prefix."""
    if name in mapping:
        return mapping[name]
    prefix = name
    while "." in prefix:
        prefix = prefix.rsplit(".", 1)[0]
        if prefix in mapping:
            return mapping[prefix] + name[len(prefix):]
    return name


def report_views(
    report_dict: dict, *, consumer_map: dict[str, str] | None = None
) -> list[TxnView]:
    """All identified transactions of a report dict, in id order."""
    views = [
        txn_view(t, consumer_map=consumer_map)
        for t in report_dict.get("transactions", ())
    ]
    return sorted(views, key=lambda v: v.txn_id)


__all__ = [
    "TxnView",
    "UriShape",
    "WILDCARD",
    "body_keys",
    "parse_uri",
    "report_views",
    "txn_view",
    "untokenize",
]
