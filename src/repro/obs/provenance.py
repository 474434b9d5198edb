"""Taint provenance: *why* is this field in the signature?

Every slice maps each of its statements to the statement that caused
the inclusion (``SliceResult.stmts``).  Those parent links form a forest
rooted at the demarcation point's seeds, so any statement in a request
slice has a chain back to the request send — the explicit provenance
BackDroid-style targeted analyses ask for.

:func:`explain` ties the pieces together for one ``(app, request,
field)`` question:

1. run the pipeline once,
2. resolve the request selector to a transaction and the field selector
   to a signature term,
3. locate the statement that *produced* the field — the slice statement
   carrying the matching string literal — and walk the parent links to
   the demarcation point,
4. attach the dynamic side: ``Unknown`` origin tags and the
   inter-transaction dependency edges that target the field.

Surfaced on the CLI as ``repro explain <app> <request> <field>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..core.config import AnalysisConfig
from ..core.extractocol import Extractocol
from ..ir.statements import StmtRef
from ..ir.values import StringConst
from ..signature.lang import Const, JsonObject, Term, origins_of


@dataclass(frozen=True)
class ProvenanceStep:
    """One hop of a provenance chain: a concrete statement."""

    method_id: str
    index: int
    text: str

    def __str__(self) -> str:
        return f"{self.method_id}#{self.index}: {self.text}"


@dataclass
class FieldProvenance:
    """The full answer for one (transaction, field) question."""

    app: str
    txn_id: int
    request: str
    field: str
    value: str
    origins: list[str] = dc_field(default_factory=list)
    #: producing statement first, demarcation point last
    steps: list[ProvenanceStep] = dc_field(default_factory=list)
    dependencies: list[str] = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "txn_id": self.txn_id,
            "request": self.request,
            "field": self.field,
            "value": self.value,
            "origins": self.origins,
            "steps": [
                {"method": s.method_id, "index": s.index, "stmt": s.text}
                for s in self.steps
            ],
            "dependencies": self.dependencies,
        }

    def describe(self) -> str:
        lines = [
            f"app: {self.app}",
            f"transaction: #{self.txn_id} {self.request}",
            f"field: {self.field}",
            f"value: {self.value}",
        ]
        if self.origins:
            lines.append("origins: " + ", ".join(self.origins))
        if self.steps:
            lines.append("statement chain (producer -> demarcation point):")
            for i, step in enumerate(self.steps, 1):
                lines.append(f"  {i}. {step}")
        else:
            lines.append("statement chain: (not resolved to a literal)")
        for dep in self.dependencies:
            lines.append(f"depends on: {dep}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# selector resolution


def _match_transaction(report, request_sel: str):
    txns = list(report.transactions) + list(report.unidentified)
    if request_sel.isdigit():
        wanted = int(request_sel)
        for txn in txns:
            if txn.txn_id == wanted:
                return txn
        raise LookupError(f"no transaction #{wanted} in {report.app}")
    needle = request_sel.lower()
    for txn in txns:
        if needle in f"{txn.request.method} {txn.request.uri_regex}".lower():
            return txn
    raise LookupError(
        f"no transaction matching {request_sel!r} in {report.app}; "
        f"have: " + "; ".join(
            f"#{t.txn_id} {t.request.method} {t.request.uri_regex}" for t in txns
        )
    )


def _resolve_field(txn, field_sel: str) -> tuple[Term, str]:
    """(term, canonical field label) for a field selector: ``uri``,
    ``body``, ``header:<name>``, or a literal text fragment to locate."""
    if field_sel == "uri":
        return txn.request.uri, "uri"
    if field_sel == "body":
        if txn.request.body is None:
            raise LookupError(f"transaction #{txn.txn_id} has no request body")
        return txn.request.body, "body"
    if field_sel.startswith("header:"):
        name = field_sel.split(":", 1)[1]
        for header, value in txn.request.headers:
            if header.lower() == name.lower():
                return value, f"header:{header}"
        raise LookupError(f"transaction #{txn.txn_id} has no header {name!r}")
    # fragment search across uri, body and headers
    fields: list[tuple[Term | None, str]] = [(txn.request.uri, "uri")]
    if txn.request.body is not None:
        fields.append((txn.request.body, "body"))
    for header, value in txn.request.headers:
        fields.append((value, f"header:{header}"))
    for term, label in fields:
        if term is None:
            continue
        for t in term.walk():
            if isinstance(t, Const) and field_sel in t.text:
                return t, f"{label}:{field_sel}"
            if isinstance(t, JsonObject):
                for key, _value in t.entries:
                    if isinstance(key, Const) and field_sel in key.text:
                        return key, f"{label}:{field_sel}"
    raise LookupError(
        f"no field matching {field_sel!r} in transaction #{txn.txn_id}"
    )


# ---------------------------------------------------------------------------
# chain construction


def _candidate_texts(term: Term) -> list[str]:
    """Constant fragments of the field, longest first (most specific)."""
    texts = {
        t.text for t in term.walk() if isinstance(t, Const) and t.text.strip()
    }
    return sorted(texts, key=len, reverse=True)


def _find_producer(program, sl, candidates: list[str]) -> StmtRef | None:
    """The slice statement carrying a string literal that produced (part
    of) the field.  Exact match wins; otherwise substantial (>= 3 chars)
    substring overlap in either direction."""
    exact: StmtRef | None = None
    partial: StmtRef | None = None
    for ref in sorted(sl.stmts, key=lambda r: (r.method_id, r.index)):
        try:
            method = program.method_by_id(ref.method_id)
        except KeyError:
            continue
        if method.body is None or ref.index >= len(method.body.statements):
            continue
        stmt = method.stmt_at(ref.index)
        for value in stmt.all_used_values():
            if not isinstance(value, StringConst) or not value.value.strip():
                continue
            for cand in candidates:
                if value.value == cand and exact is None:
                    exact = ref
                elif (
                    partial is None
                    and len(value.value) >= 3
                    and (value.value in cand or cand in value.value)
                ):
                    partial = ref
    return exact or partial


def _chain(program, sl, start: StmtRef) -> list[ProvenanceStep]:
    """Walk parent links from ``start`` to the slice seed, rendering each
    statement.  The result reads in dataflow order: the producing literal
    first, the demarcation point last."""
    steps: list[ProvenanceStep] = []
    seen: set[StmtRef] = set()
    ref: StmtRef | None = start
    while ref is not None and ref not in seen:
        seen.add(ref)
        try:
            method = program.method_by_id(ref.method_id)
            text = str(method.stmt_at(ref.index))
        except (KeyError, IndexError):
            text = "<unknown>"
        steps.append(ProvenanceStep(ref.method_id, ref.index, text))
        ref = sl.stmts.get(ref)
    return steps


# ---------------------------------------------------------------------------
# entry point


def explain(
    apk,
    config: AnalysisConfig | None = None,
    *,
    request: str,
    field: str,
) -> FieldProvenance:
    """Answer "why is ``field`` in ``request``'s signature?" for one APK.

    Runs one analysis without a store, so every slice is fresh and
    carries its parent links."""
    engine = Extractocol(config or AnalysisConfig())
    report = engine.analyze(apk)
    slicing = engine.last_slicing
    txn = _match_transaction(report, request)
    term, label = _resolve_field(txn, field)

    steps: list[ProvenanceStep] = []
    if slicing is not None:
        dp_slices = next(
            (s for s in slicing.slices if s.dp.site == txn.site), None
        )
        if dp_slices is not None:
            producer = _find_producer(
                apk.program, dp_slices.request, _candidate_texts(term)
            )
            if producer is not None:
                steps = _chain(apk.program, dp_slices.request, producer)

    deps = [
        str(d)
        for d in txn.depends_on
        if d.dst_field == label or label.startswith(d.dst_field)
    ]
    return FieldProvenance(
        app=report.app,
        txn_id=txn.txn_id,
        request=f"{txn.request.method} {txn.request.uri_regex}",
        field=label,
        value=str(term),
        origins=sorted(origins_of(term)),
        steps=steps,
        dependencies=deps,
    )


__all__ = ["FieldProvenance", "ProvenanceStep", "explain"]
