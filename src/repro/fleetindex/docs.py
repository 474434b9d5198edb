"""Index documents: what one stored report contributes to the fleet index.

The indexable unit is a *transaction* inside a stored report envelope —
``(result key, txn id)`` — because that is the granularity fleet questions
arrive at ("which endpoints carry a ``modhash``-style dependency", "find
an endpoint like this one").  :func:`extract_doc` turns one stored
report dict, as :meth:`~repro.service.store.ResultStore.lookup` returns
it, into a flat, JSON-safe document: per-transaction term lists for the
inverted index plus a display label, and the compact
:func:`report_summary` block the store also stamps into envelopes at
``put`` time.

Everything here is a pure function of the canonical report dict
(:func:`repro.core.report.report_to_dict` output), so the document a
reader derives for an unfolded report, the one a fold indexes and the one
a full rebuild indexes are byte-identical — which is what makes
incremental fold-in reproduce a full rebuild exactly.

Term namespaces::

    host:<host>            lowercased literal host (wildcards -> ``*``)
    path:<segment>         every literal path segment, lowercased
    path:</full/path>      the whole normalised path
    field:<name>           dependency fields: the destination field
                           (``uri`` | ``body`` | ``header:<name>``, plus
                           the bare header name) and the source JSON
                           path's trailing identifier (``$.modhash`` ->
                           ``modhash``) — posted on *both* endpoints of
                           the edge, so one query finds feeders and
                           consumers
    text:<token>           free-text tokens from method, host, path,
                           query keys, body/response keys and consumers
    gram:<shingle>         character 4-gram shingles of the normalised
                           ``METHOD uri`` signature (similarity search)
"""

from __future__ import annotations

import re

from ..deps.transactions import Dependency
from ..diff.normal import WILDCARD, body_keys, parse_uri, untokenize

#: Bump when the summary block's layout changes; readers treat a
#: mismatched summary as absent and recompute from the report payload.
SUMMARY_SCHEMA = 1

#: Character shingle width for similarity grams.
GRAM_WIDTH = 4

_TOKEN_RE = re.compile(r"[a-z0-9_]+")
_TAIL_RE = re.compile(r"[A-Za-z0-9_]+")


def _clean(text: str) -> str:
    """Collapsed-wildcard sentinel -> a printable ``*``."""
    return text.replace(WILDCARD, "*")


def _dep_fields(dep_str: str) -> set[str]:
    """The queryable field names of one dependency edge string."""
    try:
        dep = Dependency.parse(dep_str)
    except ValueError:
        return set()
    fields = {dep.dst_field.lower()}
    if dep.dst_field.startswith("header:"):
        fields.add(dep.dst_field[len("header:"):].lower())
    tail = _TAIL_RE.findall(dep.src_path)
    if tail:
        fields.add(tail[-1].lower())
    return {f for f in fields if f}


def signature_label(txn: dict) -> str:
    """The human-readable, literal form of one transaction's request
    signature: ``METHOD`` plus the untokenised URI with wildcards shown
    as ``*``.  Doubles as the gram source for similarity search."""
    return f"{txn.get('method', '?')} {_clean(untokenize(txn.get('uri_regex', '')))}"


def signature_grams(label: str) -> set[str]:
    """Character shingles of a normalised signature label."""
    text = label.lower()
    if len(text) <= GRAM_WIDTH:
        return {text} if text else set()
    return {text[i:i + GRAM_WIDTH] for i in range(len(text) - GRAM_WIDTH + 1)}


def txn_terms(txn: dict) -> list[str]:
    """The sorted, deduplicated term list of one transaction dict."""
    terms: set[str] = set()
    text: set[str] = set()

    uri = parse_uri(txn.get("uri_regex", ""))
    host = _clean(uri.host).lower()
    if host and host != "*":
        terms.add(f"host:{host}")
        text.update(_TOKEN_RE.findall(host))

    segments = [_clean(s).lower() for s in uri.segments]
    literal = [s for s in segments if s and s != "*"]
    for seg in literal:
        terms.add(f"path:{seg}")
        text.update(_TOKEN_RE.findall(seg))
    if literal:
        terms.add("path:/" + "/".join(segments))

    for key in uri.query_keys:
        text.add(key.lower())

    text.add(txn.get("method", "").lower())
    for name, _value in (txn.get("headers") or {}).items():
        text.update(_TOKEN_RE.findall(name.lower()))
    for key in body_keys(txn.get("body"), txn.get("body_kind")):
        text.update(_TOKEN_RE.findall(key.lower()))
    for key in body_keys(txn.get("response_body"), txn.get("response_kind")):
        text.update(_TOKEN_RE.findall(key.lower()))
    for consumer in txn.get("consumers", ()):
        text.update(_TOKEN_RE.findall(consumer.lower()))

    for dep_str in txn.get("depends_on", ()):
        for field in _dep_fields(dep_str):
            terms.add(f"field:{field}")

    terms.update(f"text:{tok}" for tok in text if tok)
    terms.update(f"gram:{g}" for g in signature_grams(signature_label(txn)))
    return sorted(terms)


def report_summary(report: dict) -> dict:
    """The compact, queryable summary the store stamps into envelopes.

    Everything the catalog and a host-level query need without
    deserialising the full report: hosts, endpoint/transaction counts and
    the dependency-field vocabulary.
    """
    hosts: set[str] = set()
    endpoints: set[tuple[str, str]] = set()
    dep_fields: set[str] = set()
    dependencies = 0
    txns = report.get("transactions", ())
    for txn in txns:
        uri = parse_uri(txn.get("uri_regex", ""))
        host = _clean(uri.host).lower()
        if host and host != "*":
            hosts.add(host)
        endpoints.add((txn.get("method", "?"), txn.get("uri_regex", "")))
        deps = txn.get("depends_on", ())
        dependencies += len(deps)
        for dep_str in deps:
            dep_fields.update(_dep_fields(dep_str))
    return {
        "schema": SUMMARY_SCHEMA,
        "hosts": sorted(hosts),
        "endpoints": len(endpoints),
        "transactions": len(txns),
        "unidentified": len(report.get("unidentified", ())),
        "dependencies": dependencies,
        "dependency_fields": sorted(dep_fields),
    }


def envelope_summary(envelope: dict) -> dict:
    """The summary block of a stored report envelope (one
    :meth:`~repro.service.store.ResultStore.lookup` returned),
    recomputing it from the report payload when absent or written under
    another summary schema (the backfill path for pre-summary stores)."""
    summary = envelope.get("summary")
    if isinstance(summary, dict) and summary.get("schema") == SUMMARY_SCHEMA:
        return summary
    return report_summary(envelope["report"])


def extract_doc(key: str, app: str, report: dict) -> dict:
    """One envelope's full index document.

    ``txns`` carries, per transaction, the display label and the sorted
    term list; ``summary`` is the same block :func:`report_summary`
    computes.  Unidentified (wildcard-only) transactions are not
    indexed — they have no literal structure to post.
    """
    return {
        "key": key,
        "app": app,
        "summary": report_summary(report),
        "txns": [
            {
                "id": txn["id"],
                "label": signature_label(txn),
                "terms": txn_terms(txn),
            }
            for txn in report.get("transactions", ())
        ],
    }


__all__ = [
    "GRAM_WIDTH",
    "SUMMARY_SCHEMA",
    "envelope_summary",
    "extract_doc",
    "report_summary",
    "signature_grams",
    "signature_label",
    "txn_terms",
]
