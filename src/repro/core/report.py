"""The analysis report — everything Extractocol outputs for one APK.

Besides the live :class:`AnalysisReport` the pipeline produces, this module
owns its canonical JSON-serialisable form: :func:`report_to_dict` flattens
a report into plain dicts and strings (signature Terms become their regex
and term renderings).  That dict is the stored report: the service result
store writes it, and every reader of a stored report (``GET /report``, the
fleet index, ``repro diff`` and ``GET /diff``) reads it as data, so a
cached report is byte-identical to a fresh run (`repro.service.store`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..deps.transactions import Dependency, Transaction
from ..obs.phases import PhaseStats


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
# internals — so readers of a stored report take it as data.


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
    """JSON-serialisable view of an :class:`AnalysisReport`.  Timing is
    intentionally omitted so two runs over the same APK/config serialise
    identically."""
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


__all__ = [
    "AnalysisReport",
    "SignatureStats",
    "report_to_dict",
]
