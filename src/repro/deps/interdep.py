"""Inter-transaction dependency inference (paper §3.3).

Provenance-tagged unknowns in request signatures name the response they
came from (``response:<txn>:<path>``); intersecting request-originating
objects with response-originated objects reduces to scanning those tags.
Field sensitivity comes for free: the tag records the exact response path,
and the request side records which part (URI, body, header) embeds it.
"""

from __future__ import annotations

from ..obs.tracer import NULL_SPAN
from ..signature.lang import Term, Unknown
from .transactions import Dependency, Transaction


def _scan_term(term: Term | None, dst: Transaction, dst_field: str,
               known_ids: set[int]) -> list[Dependency]:
    if term is None:
        return []
    out: list[Dependency] = []
    for t in term.walk():
        if not isinstance(t, Unknown) or not t.origin:
            continue
        if not t.origin.startswith("response:"):
            continue
        _, ids, path = t.origin.split(":", 2)
        for sid in ids.split(","):
            src = int(sid)
            if src == dst.txn_id or src not in known_ids:
                continue
            out.append(
                Dependency(
                    src_txn=src,
                    src_path="$." + path if path != "$" else "$",
                    dst_txn=dst.txn_id,
                    dst_field=dst_field,
                )
            )
    return out


def infer_dependencies(
    transactions: list[Transaction], *, span=NULL_SPAN
) -> list[Dependency]:
    """Populate ``depends_on`` on every transaction and return all edges.
    ``span``, the parent span, gains the scanned / inferred counters."""
    known_ids = {t.txn_id for t in transactions}
    edges: list[Dependency] = []
    for txn in transactions:
        deps: list[Dependency] = []
        deps += _scan_term(txn.request.uri, txn, "uri", known_ids)
        deps += _scan_term(txn.request.body, txn, "body", known_ids)
        for name, value in txn.request.headers:
            deps += _scan_term(value, txn, f"header:{name}", known_ids)
        # dedupe
        seen: set[str] = set()
        unique = []
        for d in deps:
            key = str(d)
            if key not in seen:
                seen.add(key)
                unique.append(d)
        txn.depends_on = unique
        edges.extend(unique)
    span.count("transactions_scanned", len(transactions))
    span.count("edges_inferred", len(edges))
    return edges


def dependency_graph(transactions: list[Transaction]):
    """The transaction dependency graph as a ``networkx.MultiDiGraph`` —
    nodes are transaction ids; parallel edges carry (src_path, dst_field)
    labels (one transaction may feed another through several fields, as
    radio reddit's login does via modhash *and* cookie)."""
    import networkx as nx

    g = nx.MultiDiGraph()
    for txn in transactions:
        g.add_node(
            txn.txn_id,
            method=txn.request.method,
            uri=txn.request.uri_regex,
            consumers=sorted(txn.response.consumers),
        )
    for txn in transactions:
        for d in txn.depends_on:
            g.add_edge(d.src_txn, d.dst_txn, src_path=d.src_path, dst_field=d.dst_field)
    return g


def render_graph(transactions: list[Transaction]) -> str:
    """Human-readable dependency graph (the Table 3/4 right-hand columns)."""
    lines = []
    for txn in sorted(transactions, key=lambda t: t.txn_id):
        deps = ", ".join(f"#{d.src_txn}{d.src_path}" for d in txn.depends_on) or "-"
        consumers = ",".join(sorted(txn.response.consumers)) or ""
        suffix = f" => {consumers}" if consumers else ""
        lines.append(f"#{txn.txn_id} {txn.request.method} <- {deps}{suffix}")
    return "\n".join(lines)


__all__ = ["dependency_graph", "infer_dependencies", "render_graph"]
