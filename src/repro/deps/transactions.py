"""Reconstructed HTTP transactions — the pipeline's primary output.

An HTTP transaction (paper §2) consists of URI, request data (header,
mime-type and body), request method, and response data.  Signatures are
exposed both as terms (the internal tree form) and compiled regexes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..ir.statements import StmtRef
from ..semantics.avals import RequestAV
from ..signature.builder import TxnRecord
from ..signature.lang import (
    Const,
    JsonArray,
    JsonObject,
    Term,
    XmlElement,
    constant_keywords,
    origins_of,
)
from ..signature.regex import to_regex


def _body_kind(term: Term | None, mime: str | None) -> str | None:
    if term is None:
        return None
    if isinstance(term, (JsonObject, JsonArray)):
        return "json"
    if isinstance(term, XmlElement):
        return "xml"
    if mime == "application/x-www-form-urlencoded":
        return "query"
    # query strings are recognisable from k=v& shapes in the constants
    consts = "".join(t.text for t in term.walk() if isinstance(t, Const))
    if "=" in consts:
        return "query"
    if consts.lstrip().startswith("<"):
        return "xml"
    if consts.lstrip().startswith("{"):
        return "json"
    return "text"


@dataclass(slots=True)
class RequestSig:
    method: str
    uri: Term
    headers: tuple[tuple[str, Term], ...] = ()
    body: Term | None = None
    mime: str | None = None
    body_origins: frozenset[str] = frozenset()

    @property
    def uri_regex(self) -> str:
        return to_regex(self.uri)

    @property
    def body_regex(self) -> str | None:
        return to_regex(self.body) if self.body is not None else None

    @property
    def body_kind(self) -> str | None:
        return _body_kind(self.body, self.mime)

    @property
    def keywords(self) -> list[str]:
        out = constant_keywords(self.uri)
        if self.body is not None:
            out += constant_keywords(self.body)
        return out

    @property
    def origins(self) -> set[str]:
        out = origins_of(self.uri)
        if self.body is not None:
            out |= origins_of(self.body)
        for _, v in self.headers:
            out |= origins_of(v)
        return out

    @property
    def is_dynamic(self) -> bool:
        """True when the entire URI is derived from prior responses — the
        "dynamically-derived URI" class of the TED case study (Table 4)."""
        non_resp = [
            t
            for t in self.uri.walk()
            if isinstance(t, Const) and t.text.strip()
        ]
        return not non_resp and any(
            o.startswith("response:") or o == "database" for o in origins_of(self.uri)
        )

    @staticmethod
    def from_aval(request: RequestAV) -> "RequestSig":
        return RequestSig(
            method=request.method,
            uri=request.uri,
            headers=request.headers,
            body=request.body,
            mime=request.mime,
            body_origins=request.body_origins,
        )


@dataclass(slots=True)
class ResponseSig:
    kind: str  # "json" | "xml" | "text" | "binary" | "unknown"
    body: Term | None = None
    consumers: frozenset[str] = frozenset()

    @property
    def body_regex(self) -> str | None:
        return to_regex(self.body) if self.body is not None else None

    @property
    def has_body(self) -> bool:
        return self.body is not None

    @property
    def keywords(self) -> list[str]:
        return constant_keywords(self.body) if self.body is not None else []


@dataclass(slots=True)
class Dependency:
    """Field-granularity inter-transaction dependency (paper §3.3):
    request field of ``dst`` originates from response path of ``src``."""

    src_txn: int
    src_path: str  # e.g. "$.modhash" or "$.songs.[].relay"
    dst_txn: int
    dst_field: str  # "uri" | "body" | "header:<name>"

    def __str__(self) -> str:
        return f"txn{self.src_txn}[{self.src_path}] -> txn{self.dst_txn}.{self.dst_field}"

    @staticmethod
    def parse(text: str) -> "Dependency":
        """The dependency whose ``str`` is ``text`` (a report dict's
        ``depends_on`` entry); :class:`ValueError` on any other string."""
        m = _DEP_RE.match(text)
        if m is None:
            raise ValueError(f"malformed dependency string: {text!r}")
        return Dependency(
            src_txn=int(m.group(1)),
            src_path=m.group(2),
            dst_txn=int(m.group(3)),
            dst_field=m.group(4),
        )


_DEP_RE = re.compile(r"^txn(\d+)\[(.*)\] -> txn(\d+)\.(.*)$", re.DOTALL)


@dataclass(slots=True)
class Transaction:
    txn_id: int
    site: StmtRef
    root: str
    request: RequestSig
    response: ResponseSig
    consumer: str | None = None
    depends_on: list[Dependency] = field(default_factory=list)

    @property
    def has_pair(self) -> bool:
        """Request paired with a response body the app actually processes."""
        return self.response.has_body

    @property
    def is_identified(self) -> bool:
        """A signature counts as identified when it carries constant content
        (URI prefix, query keys or body structure).  Wildcard-only output —
        what intent-fed or multi-hop-async construction degrades to (§3.4,
        §5.1) — does not count."""
        uri_consts = [
            t.text for t in self.request.uri.walk()
            if isinstance(t, Const) and t.text.strip()
        ]
        if uri_consts:
            return True
        if self.request.body is not None and constant_keywords(self.request.body):
            return True
        # dynamic URIs wholly derived from a prior response are identified:
        # the dependency itself is the information (TED #4/#5/#7/#8).
        return self.request.is_dynamic

    def describe(self) -> str:
        lines = [f"{self.request.method} {self.request.uri_regex}"]
        for name, value in self.request.headers:
            lines.append(f"  {name}: {to_regex(value, anchored=False)}")
        if self.request.body is not None:
            lines.append(f"  body[{self.request.body_kind}]: {self.request.body}")
        if self.response.has_body:
            lines.append(f"  -> response[{self.response.kind}]: {self.response.body}")
        for c in sorted(self.response.consumers):
            lines.append(f"  -> consumed by: {c}")
        for d in self.depends_on:
            lines.append(f"  <- {d}")
        return "\n".join(lines)


def from_record(record: TxnRecord) -> Transaction:
    acc = record.acc
    response = ResponseSig(
        kind=acc.kind if acc is not None else "unknown",
        body=record.response_term,
        consumers=frozenset(acc.consumers) if acc is not None else frozenset(),
    )
    return Transaction(
        txn_id=record.txn_id,
        site=record.site,
        root=record.root,
        request=RequestSig.from_aval(record.request),
        response=response,
        consumer=record.consumer,
    )


__all__ = [
    "Dependency",
    "RequestSig",
    "ResponseSig",
    "Transaction",
    "from_record",
]
