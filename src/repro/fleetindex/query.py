"""Fleet query grammar and execution.

Grammar — whitespace-separated clauses, AND-ed together::

    host:api.example.com      exact host
    path:login                one literal path segment
    path:/api/v1/login        the whole normalised path
    field:modhash             dependency field (uri | body | header:<name>
                              | bare header name | source JSON-path tail)
    app:reddinator            restrict to one app
    like:<app>/<txn>          similarity: endpoints whose signature shares
                              character shingles with that transaction
                              (<app> may also be a result-key prefix)
    <word>                    free text over methods, hosts, paths, query
                              keys, body/response keys and consumer names

Results are transactions — ``(app, result key, txn id, label)`` — in a
deterministic total order: similarity score (when a ``like:`` clause is
present) descending, then app, key, txn id.  Pagination is cursor-based:
the opaque cursor encodes the last hit's sort tuple, so pages are stable
under concurrent writes (new hits sort in, old cursors stay valid).
"""

from __future__ import annotations

import base64
import binascii
import json
import re

from ..obs.tracer import NULL_SPAN
from .docs import signature_grams
from .index import FleetIndex, Posting

DEFAULT_LIMIT = 50
MAX_LIMIT = 500


class QueryError(ValueError):
    """A malformed query string (bad clause, unresolvable like: ref)."""


# ------------------------------------------------------------------ grammar
def parse_query(text: str) -> list[tuple[str, ...]]:
    """Parse a query string into ``(kind, ...)`` clause tuples."""
    clauses: list[tuple[str, ...]] = []
    for raw in text.split():
        prefix, sep, value = raw.partition(":")
        if sep and prefix in ("host", "path", "field") and value:
            clauses.append(("term", f"{prefix}:{value.lower()}"))
        elif sep and prefix == "app" and value:
            clauses.append(("app", value))
        elif sep and prefix == "like":
            ref, slash, txn = value.rpartition("/")
            if not slash or not txn.isdigit():
                raise QueryError(
                    f"like: clause needs <app>/<txn-id>, got {raw!r}"
                )
            clauses.append(("like", ref, int(txn)))
        elif sep and prefix in ("host", "path", "field", "app", "like"):
            raise QueryError(f"empty {prefix}: clause in {raw!r}")
        else:
            clauses.append(("term", f"text:{raw.lower()}"))
    if not clauses:
        raise QueryError("empty query")
    return clauses


def normalize_query(clauses: list[tuple[str, ...]]) -> str:
    """The canonical rendering of a parsed query (for spans/metrics)."""
    out = []
    for clause in clauses:
        if clause[0] == "term":
            out.append(clause[1])
        elif clause[0] == "app":
            out.append(f"app:{clause[1]}")
        else:
            out.append(f"like:{clause[1]}/{clause[2]}")
    return " ".join(out)


# ------------------------------------------------------------------ cursors
def encode_cursor(parts: list) -> str:
    raw = json.dumps(parts, separators=(",", ":")).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def decode_cursor(text: str | None) -> list | None:
    """Decode an opaque cursor; ``None`` (or garbage) means first page."""
    if not text:
        return None
    try:
        parts = json.loads(base64.urlsafe_b64decode(text.encode("ascii")))
    except (ValueError, binascii.Error):
        return None
    return parts if isinstance(parts, list) else None


def paginate(items: list, *, limit: int | None, cursor: str | None,
             sort_key) -> tuple[list, str | None]:
    """One page of an already-sorted item list.

    ``sort_key(item)`` must return the JSON-safe tuple the list is sorted
    by; the returned cursor encodes the last emitted item's key.  Shared
    by ``/reports``, ``/search`` and ``/catalog``.
    """
    limit = max(1, min(int(limit or DEFAULT_LIMIT), MAX_LIMIT))
    after = decode_cursor(cursor)
    if after is not None:
        items = [item for item in items if list(sort_key(item)) > after]
    page = items[:limit]
    next_cursor = (
        encode_cursor(list(sort_key(page[-1])))
        if len(items) > limit and page
        else None
    )
    return page, next_cursor


# ---------------------------------------------------------------- execution
_APP_NORM_RE = re.compile(r"[^a-z0-9]+")


def _norm_app(name: str) -> str:
    """App names for like: matching: lowercase alphanumerics only, so
    ``reddinator``/``Reddinator`` and space-carrying display names all
    resolve from a clause that cannot itself contain whitespace."""
    return _APP_NORM_RE.sub("", name.lower())


def _resolve_like(index: FleetIndex, ref: str, txn_id: int) -> tuple[str, str]:
    """Resolve a ``like:<app>/<txn>`` reference to ``(key, label)``.

    ``<app>`` may be an app name (matched case/punctuation-insensitively;
    the lexicographically last stored key wins, deterministically) or a
    result-key prefix.
    """
    if ref in index.docs:
        keys = [ref]
    else:
        want = _norm_app(ref)
        keys = sorted(
            key for key, doc in index.docs.items()
            if doc.get("app") == ref
            or key.startswith(ref)
            or (want and _norm_app(doc.get("app", "")) == want)
        )
    if not keys:
        raise QueryError(f"like: reference {ref!r} matches no indexed app")
    key = keys[-1]
    label = index.label(key, txn_id)
    if not label:
        raise QueryError(
            f"like: app {ref!r} ({key[:12]}…) has no transaction {txn_id}"
        )
    return key, label


def _like_scores(index: FleetIndex, ref_key: str, ref_txn: int,
                 label: str) -> dict[Posting, float]:
    """Containment similarity of every indexed transaction against the
    reference signature's shingle set (reference itself excluded)."""
    grams = signature_grams(label)
    if not grams:
        return {}
    overlap: dict[Posting, int] = {}
    for gram in grams:
        for posting in index.lookup(f"gram:{gram}"):
            overlap[posting] = overlap.get(posting, 0) + 1
    overlap.pop(
        (index.docs.get(ref_key, {}).get("app", ""), ref_key, ref_txn), None
    )
    return {
        posting: round(count / len(grams), 4)
        for posting, count in overlap.items()
    }


#: Endpoints whose signature shares fewer than this fraction of shingles
#: with the like: reference are noise, not neighbours.
LIKE_THRESHOLD = 0.30


def run_search(
    index: FleetIndex,
    query: str,
    *,
    limit: int | None = None,
    cursor: str | None = None,
    span=NULL_SPAN,
) -> dict:
    """Execute one query against a loaded index; returns the result page.

    The result dict carries ``query`` (normalised), ``total`` (matches
    across all pages), ``apps`` (every matching app), ``hits`` (the page)
    and ``next_cursor``.  Deterministic for a given index + query +
    cursor — identical across rebuilt and folded indexes.  The query runs
    in a ``search:<query>`` child of ``span`` with clause/match counters.
    """
    clauses = parse_query(query)
    normalized = normalize_query(clauses)
    with span.child(f"search:{normalized}") as search_span:
        candidates: set[Posting] | None = None
        scores: dict[Posting, float] | None = None
        for clause in clauses:
            if clause[0] == "term":
                matched = index.lookup(clause[1])
            elif clause[0] == "app":
                matched = {
                    (doc["app"], key, int(txn_id))
                    for key, doc in index.docs.items()
                    if doc.get("app") == clause[1]
                    for txn_id in doc.get("txns", {})
                }
            else:
                ref_key, label = _resolve_like(index, clause[1], clause[2])
                clause_scores = {
                    posting: score
                    for posting, score in _like_scores(
                        index, ref_key, clause[2], label
                    ).items()
                    if score >= LIKE_THRESHOLD
                }
                scores = clause_scores if scores is None else {
                    posting: round(
                        (scores[posting] + clause_scores[posting]) / 2, 4
                    )
                    for posting in scores.keys() & clause_scores.keys()
                }
                matched = set((scores or {}).keys())
            candidates = (
                set(matched) if candidates is None else candidates & matched
            )
            if not candidates:
                break

        hits = []
        for app, key, txn in candidates or ():
            hit = {
                "app": app,
                "key": key,
                "txn": txn,
                "label": index.label(key, txn),
            }
            if scores is not None:
                hit["score"] = scores.get((app, key, txn), 0.0)
            hits.append(hit)

        if scores is not None:
            def sort_key(hit):
                return [-hit["score"], hit["app"], hit["key"], hit["txn"]]
        else:
            def sort_key(hit):
                return [hit["app"], hit["key"], hit["txn"]]

        hits.sort(key=sort_key)
        apps = sorted({hit["app"] for hit in hits})
        page, next_cursor = paginate(
            hits, limit=limit, cursor=cursor, sort_key=sort_key
        )
        search_span.count("clauses", len(clauses))
        search_span.count("matches", len(hits))
        search_span.count("returned", len(page))
    return {
        "query": normalized,
        "total": len(hits),
        "apps": apps,
        "hits": page,
        "next_cursor": next_cursor,
    }


def catalog(index: FleetIndex, *, limit: int | None = None,
            cursor: str | None = None) -> dict:
    """The paginated app catalog: per-app keys, hosts and summary counts,
    sorted by app name."""
    apps = sorted(index.apps().values(), key=lambda e: e["app"])
    page, next_cursor = paginate(
        apps, limit=limit, cursor=cursor, sort_key=lambda e: [e["app"]]
    )
    return {
        "total": len(apps),
        "apps": page,
        "next_cursor": next_cursor,
        "stats": index.stats(),
    }


__all__ = [
    "DEFAULT_LIMIT",
    "LIKE_THRESHOLD",
    "MAX_LIMIT",
    "QueryError",
    "catalog",
    "decode_cursor",
    "encode_cursor",
    "normalize_query",
    "paginate",
    "parse_query",
    "run_search",
]
