"""The analysis report — everything Extractocol outputs for one APK.

Besides the live :class:`AnalysisReport` the pipeline produces, this module
owns the canonical JSON-serialisable form: :func:`report_to_dict` flattens a
report (live or deserialised) into plain dicts/strings, and
:func:`report_from_dict` rebuilds a report view from that form.  The two are
exact inverses over the dict form — ``report_to_dict(report_from_dict(d))
== d`` — which is what lets the service result store hand back cached
reports byte-identical to a fresh run (`repro.service.store`).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from ..deps.transactions import Dependency, Transaction
from ..obs.phases import PhaseStats
from ..signature.lang import Const


@dataclass
class SignatureStats:
    """Counts in the shape of the paper's Table 1 row."""

    get: int = 0
    post: int = 0
    put: int = 0
    delete: int = 0
    query_string: int = 0
    json_body: int = 0
    xml_body: int = 0
    pairs: int = 0

    def as_row(self) -> dict[str, int]:
        return {
            "GET": self.get,
            "POST": self.post,
            "PUT": self.put,
            "DELETE": self.delete,
            "query": self.query_string,
            "json": self.json_body,
            "xml": self.xml_body,
            "pairs": self.pairs,
        }


@dataclass
class AnalysisReport:
    app: str
    transactions: list[Transaction] = field(default_factory=list)
    dependencies: list[Dependency] = field(default_factory=list)
    #: transactions whose signatures are wildcard-only (missed, §5.1)
    unidentified: list[Transaction] = field(default_factory=list)
    #: slicing coverage: fraction of program statements inside slices
    slice_fraction: float = 0.0
    demarcation_points: int = 0
    analysis_seconds: float = 0.0
    #: per-phase timing/counter profile (``repro.obs``); like
    #: ``analysis_seconds`` it is run-specific, so the serialisation omits
    #: it (the store envelope carries it beside the report payload)
    phase_stats: PhaseStats | None = None
    #: lint findings (``repro.lint`` Diagnostic list) attached when the
    #: analysis ran with ``AnalysisConfig.lint_level != "off"``; empty
    #: means "lint ran clean" *or* "lint never ran" — the serialised form
    #: is identical either way (the ``lint`` key appears only when
    #: findings exist, keeping lint-off reports byte-identical)
    lint_findings: list = field(default_factory=list)

    # -- derived views ----------------------------------------------------
    def stats(self) -> SignatureStats:
        s = SignatureStats()
        for txn in self.transactions:
            method = txn.request.method
            if method == "GET":
                s.get += 1
            elif method == "POST":
                s.post += 1
            elif method == "PUT":
                s.put += 1
            elif method == "DELETE":
                s.delete += 1
            kind = txn.request.body_kind
            if kind == "query":
                s.query_string += 1
            if kind == "json" or txn.response.kind == "json":
                s.json_body += 1
            if kind == "xml" or txn.response.kind == "xml":
                s.xml_body += 1
            if txn.has_pair:
                s.pairs += 1
        return s

    def request_signatures(self) -> list[str]:
        return [f"{t.request.method} {t.request.uri_regex}" for t in self.transactions]

    def unique_uri_signatures(self) -> set[str]:
        return {t.request.uri_regex for t in self.transactions}

    def unique_request_body_signatures(self) -> set[str]:
        """Unique request body/query-string signatures, keyed per endpoint
        (two endpoints with structurally identical bodies are still two
        signatures, as in Table 1's per-message counting)."""
        out = set()
        for t in self.transactions:
            if t.request.body is not None:
                out.add(f"{t.request.uri_regex}::{t.request.body}")
        return out

    def unique_response_body_signatures(self) -> set[str]:
        return {
            f"{t.request.uri_regex}::{t.response.body}"
            for t in self.transactions
            if t.response.has_body
        }

    def keywords(self) -> Counter:
        """Constant keywords across all signatures (Figure 7's unit)."""
        out: Counter = Counter()
        for t in self.transactions:
            for kw in t.request.keywords:
                out[("request", kw)] += 1
            for kw in t.response.keywords:
                out[("response", kw)] += 1
        return out

    def transaction(self, txn_id: int) -> Transaction:
        for t in self.transactions:
            if t.txn_id == txn_id:
                return t
        raise KeyError(txn_id)

    def consumers(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for t in self.transactions:
            for c in t.response.consumers:
                out.setdefault(c, []).append(t.txn_id)
        return out

    def summary(self) -> str:
        s = self.stats()
        lines = [
            f"app: {self.app}",
            f"transactions: {len(self.transactions)} "
            f"(GET {s.get} / POST {s.post} / PUT {s.put} / DELETE {s.delete})",
            f"request-response pairs: {s.pairs}",
            f"dependencies: {len(self.dependencies)}",
            f"unidentified (wildcard-only): {len(self.unidentified)}",
            f"slice fraction: {self.slice_fraction:.1%}",
            f"demarcation points: {self.demarcation_points}",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Serialisation: the canonical dict form of a report.
#
# The dict form deliberately flattens signature Terms to their string/regex
# renderings — it is a *protocol description*, not a pickle of the analysis
# internals.  Deserialising therefore yields frozen signature views that
# carry the rendered strings; everything the report API derives from them
# (stats, summaries, consumer maps) still works.


@dataclass(frozen=True)
class FrozenRequestSig:
    """A request signature reconstituted from the serialised form: same
    read API as :class:`~repro.deps.transactions.RequestSig`, but with the
    rendered strings as ground truth instead of signature Terms."""

    method: str
    uri_regex: str
    headers: tuple[tuple[str, str], ...] = ()
    body: str | None = None
    body_kind: str | None = None
    is_dynamic: bool = False


@dataclass(frozen=True)
class FrozenResponseSig:
    kind: str
    body: str | None = None
    consumers: frozenset[str] = frozenset()

    @property
    def has_body(self) -> bool:
        return self.body is not None


@dataclass
class FrozenTransaction:
    txn_id: int
    request: FrozenRequestSig
    response: FrozenResponseSig
    depends_on: list[Dependency] = field(default_factory=list)

    @property
    def has_pair(self) -> bool:
        return self.response.has_body

    def describe(self) -> str:
        lines = [f"{self.request.method} {self.request.uri_regex}"]
        for name, value in self.request.headers:
            lines.append(f"  {name}: {value}")
        if self.request.body is not None:
            lines.append(f"  body[{self.request.body_kind}]: {self.request.body}")
        if self.response.has_body:
            lines.append(f"  -> response[{self.response.kind}]: {self.response.body}")
        for c in sorted(self.response.consumers):
            lines.append(f"  -> consumed by: {c}")
        for d in self.depends_on:
            lines.append(f"  <- {d}")
        return "\n".join(lines)


def _txn_to_dict(txn) -> dict:
    return {
        "id": txn.txn_id,
        "method": txn.request.method,
        "uri_regex": txn.request.uri_regex,
        "headers": {k: str(v) for k, v in txn.request.headers},
        "body": str(txn.request.body) if txn.request.body is not None else None,
        "body_kind": txn.request.body_kind,
        "response_kind": txn.response.kind,
        "response_body": (
            str(txn.response.body) if txn.response.body is not None else None
        ),
        "consumers": sorted(txn.response.consumers),
        "depends_on": [str(d) for d in txn.depends_on],
        "dynamic_uri": txn.request.is_dynamic,
    }


def report_to_dict(report) -> dict:
    """JSON-serialisable view of an :class:`AnalysisReport` (live or one
    rebuilt by :func:`report_from_dict`).  Timing is intentionally omitted
    so two runs over the same APK/config serialise identically."""
    out = {
        "app": report.app,
        "stats": report.stats().as_row(),
        "slice_fraction": report.slice_fraction,
        "demarcation_points": report.demarcation_points,
        "transactions": [_txn_to_dict(t) for t in report.transactions],
        "unidentified": [_txn_to_dict(t) for t in report.unidentified],
    }
    if report.lint_findings:
        out["lint"] = [f.to_dict() for f in report.lint_findings]
    return out


_DEP_RE = re.compile(r"^txn(\d+)\[(.*)\] -> txn(\d+)\.(.*)$", re.DOTALL)


def _dep_from_str(text: str) -> Dependency:
    m = _DEP_RE.match(text)
    if m is None:
        raise ValueError(f"malformed dependency string: {text!r}")
    return Dependency(
        src_txn=int(m.group(1)),
        src_path=m.group(2),
        dst_txn=int(m.group(3)),
        dst_field=m.group(4),
    )


def _txn_from_dict(data: dict) -> FrozenTransaction:
    return FrozenTransaction(
        txn_id=data["id"],
        request=FrozenRequestSig(
            method=data["method"],
            uri_regex=data["uri_regex"],
            headers=tuple(data.get("headers", {}).items()),
            body=data.get("body"),
            body_kind=data.get("body_kind"),
            is_dynamic=data.get("dynamic_uri", False),
        ),
        response=FrozenResponseSig(
            kind=data.get("response_kind", "unknown"),
            body=data.get("response_body"),
            consumers=frozenset(data.get("consumers", ())),
        ),
        depends_on=[_dep_from_str(d) for d in data.get("depends_on", ())],
    )


def report_from_dict(data: dict) -> AnalysisReport:
    """Rebuild a report from :func:`report_to_dict` output.

    The result carries :class:`FrozenTransaction` views (rendered strings,
    not signature Terms), so derived views — ``stats()``, ``summary()``,
    ``consumers()``, ``transaction()`` — all work, and serialising it again
    reproduces ``data`` exactly."""
    report = AnalysisReport(
        app=data["app"],
        transactions=[_txn_from_dict(t) for t in data.get("transactions", ())],
        unidentified=[_txn_from_dict(t) for t in data.get("unidentified", ())],
        slice_fraction=data.get("slice_fraction", 0.0),
        demarcation_points=data.get("demarcation_points", 0),
    )
    if "lint" in data:
        from ..lint.diagnostics import Diagnostic

        report.lint_findings = [Diagnostic.from_dict(f) for f in data["lint"]]
    report.dependencies = [d for t in report.transactions for d in t.depends_on]
    return report


__all__ = [
    "AnalysisReport",
    "FrozenRequestSig",
    "FrozenResponseSig",
    "FrozenTransaction",
    "SignatureStats",
    "report_from_dict",
    "report_to_dict",
]
