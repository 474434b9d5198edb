"""The on-disk inverted index: one file plus pending markers.

Layout — a side-band ``index/`` tree inside the result store, invisible
to report listings exactly like the ``manifests/`` tree::

    <store>/index/index.json           schema, doc registry, postings
    <store>/index/pending/<key>.json   empty marker: a report not yet folded

``index.json`` holds ``docs``, the doc registry (result key -> app,
summary, transaction labels), and ``terms``: each term's postings as one
flat ``[doc, txn, doc, txn, ...]`` list, where ``doc`` is the result
key's position in the sorted key list.

**Determinism.**  Index bytes are a pure function of the set of indexed
envelopes: the file is canonical JSON, postings are sorted, and nothing
in it is a timestamp.  Two independently built indexes over the same
store are therefore byte-identical trees, and an incremental fold-in
writes exactly what a full rebuild would have written.

**Freshness.**  Every report ``put`` creates an empty marker named by
the result key once the envelope has landed.  Readers derive each
unfolded report's document from its envelope at load time (memoized per
key across reloads: an envelope never changes), so a query issued right
after a batch sees every new report with zero rebuild; ``repro index``
folds every stored report the durable index lacks into ``index.json``
and then deletes the markers it listed.

**Crash safety.**  A fold writes ``index.json`` with one
:func:`~repro.service.store.atomic_write`, so a crashed builder leaves
either the old index or the new one.  A file that cannot be read
(damaged on disk) or has another schema reads as "no index": readers see
only the pending overlay, and the next fold rebuilds from the envelopes.
An index of schema 1 (``MANIFEST.json``, ``segments/``, ``docs/``) is
never read; its files can be deleted.  A report whose marker never
landed — its writer died between the two, or the marker write failed —
is missing from readers until the next fold, which finds it by scanning
the stored envelopes; a marker without an envelope is dropped by the
fold.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..service.store import atomic_write, canonical_json
from .docs import extract_doc

#: Bump when the shape of ``index.json`` changes incompatibly; a file of
#: another schema reads as "no index".
INDEX_SCHEMA = 2

#: A posting: where one transaction lives.
Posting = tuple[str, str, int]  # (app, result key, txn id)


# ------------------------------------------------------------------ paths
def index_root(store_root: str | Path) -> Path:
    return Path(store_root) / "index"


def pending_dir(store_root: str | Path) -> Path:
    return index_root(store_root) / "pending"


def index_path(store_root: str | Path) -> Path:
    return index_root(store_root) / "index.json"


# ---------------------------------------------------------------- pending
def write_pending_delta(store_root: str | Path, key: str) -> None:
    """Mark one freshly stored report as unfolded: an empty
    ``index/pending/<key>.json``.

    Called by :meth:`ResultStore.put` after the envelope has landed.
    The marker carries nothing — readers derive the document from the
    envelope — so it is not fsynced: a lost marker only hides the report
    until the next fold, which indexes every stored report the durable
    index lacks.
    """
    directory = pending_dir(store_root)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{key}.json").touch()


def _marker_names(store_root: str | Path) -> tuple[str, ...]:
    """The pending markers' file names (``<key>.json``), sorted."""
    try:
        return tuple(sorted(
            p.name for p in pending_dir(store_root).iterdir()
            if p.suffix == ".json"
        ))
    except OSError:
        return ()


# ----------------------------------------------------------- doc registry
def _stored_doc(store, key: str) -> dict | None:
    """The index document of the report stored under ``key``, or ``None``
    when :meth:`ResultStore.lookup` finds no stored report there."""
    envelope = store.lookup(key)
    if envelope is None:
        return None
    return extract_doc(key, envelope.get("app", ""), envelope["report"])


def _registry_entry(doc: dict) -> dict:
    """The durable (term-free) form of one document for the doc registry:
    everything the catalog, ``like:`` resolution and result labelling
    need."""
    return {
        "app": doc.get("app", ""),
        "summary": doc.get("summary", {}),
        "txns": {str(t["id"]): t["label"] for t in doc.get("txns", ())},
    }


def _doc_postings(key: str, doc: dict) -> dict[str, set[Posting]]:
    out: dict[str, set[Posting]] = {}
    app = doc.get("app", "")
    for txn in doc.get("txns", ()):
        posting = (app, key, int(txn["id"]))
        for term in txn.get("terms", ()):
            out.setdefault(term, set()).add(posting)
    return out


# ------------------------------------------------------------ FleetIndex
class FleetIndex:
    """An in-memory view of the on-disk index plus its pending overlay.

    ``load()`` reads ``index.json`` and overlays, in memory (never on
    disk), the document of every marked report the file lacks, derived
    from its envelope, so the view is current with the store.
    ``refresh()`` is the cheap staleness probe the HTTP service calls per
    query: it reloads only when the index file or the marker set changed.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.postings: dict[str, set[Posting]] = {}
        self.docs: dict[str, dict] = {}
        self.pending_count = 0
        self._loaded_state: tuple | None = None
        #: the overlaid documents by result key, kept across reloads
        self._unfolded: dict[str, dict] = {}

    # ------------------------------------------------------------- state
    def _disk_state(self) -> tuple:
        """A cheap fingerprint of what load() would read."""
        try:
            index_stat = index_path(self.store.root).stat()
            index = (index_stat.st_mtime_ns, index_stat.st_size)
        except OSError:
            index = None
        return (index, _marker_names(self.store.root))

    def refresh(self) -> "FleetIndex":
        state = self._disk_state()
        if state != self._loaded_state:
            self.load()
            self._loaded_state = state
        return self

    def load(self) -> "FleetIndex":
        self.docs, self.postings = _read_index(self.store.root) or ({}, {})
        unfolded: dict[str, dict] = {}
        for name in _marker_names(self.store.root):
            key = name.removesuffix(".json")
            if key in self.docs:
                continue  # already folded durably; the marker is a leftover
            doc = self._unfolded.get(key) or _stored_doc(self.store, key)
            if doc is None:
                continue  # no stored report under this key
            unfolded[key] = doc
            self.docs[key] = _registry_entry(doc)
            for term, postings in _doc_postings(key, doc).items():
                self.postings.setdefault(term, set()).update(postings)
        self._unfolded = unfolded
        self.pending_count = len(unfolded)
        return self

    # ------------------------------------------------------------ queries
    def lookup(self, term: str) -> set[Posting]:
        return self.postings.get(term, set())

    def label(self, key: str, txn_id: int) -> str:
        doc = self.docs.get(key) or {}
        return (doc.get("txns") or {}).get(str(txn_id), "")

    def apps(self) -> dict[str, dict]:
        """The catalog view: per app, its stored keys and aggregated
        summary (hosts, endpoint/transaction counts, dependency
        fields) — sorted, deterministic."""
        out: dict[str, dict] = {}
        for key in sorted(self.docs):
            doc = self.docs[key]
            app = doc.get("app", "")
            summary = doc.get("summary") or {}
            entry = out.setdefault(app, {
                "app": app,
                "keys": [],
                "hosts": set(),
                "endpoints": 0,
                "transactions": 0,
                "dependencies": 0,
                "dependency_fields": set(),
            })
            entry["keys"].append(key)
            entry["hosts"].update(summary.get("hosts", ()))
            entry["endpoints"] += summary.get("endpoints", 0)
            entry["transactions"] += summary.get("transactions", 0)
            entry["dependencies"] += summary.get("dependencies", 0)
            entry["dependency_fields"].update(
                summary.get("dependency_fields", ())
            )
        for entry in out.values():
            entry["hosts"] = sorted(entry["hosts"])
            entry["dependency_fields"] = sorted(entry["dependency_fields"])
        return out

    def stats(self) -> dict:
        return {**_stats(self.docs, self.postings),
                "pending": self.pending_count}


def _stats(docs: dict[str, dict], postings: dict[str, set[Posting]]) -> dict:
    return {
        "docs": len(docs),
        "apps": len({d.get("app", "") for d in docs.values()}),
        "terms": len(postings),
        "postings": sum(len(p) for p in postings.values()),
    }


def _read_index(store_root: str | Path) -> tuple[dict, dict] | None:
    """Rehydrate ``(doc registry, postings)`` from ``index.json``, or
    ``None`` when the file is absent, unreadable or of another schema."""
    try:
        data = json.loads(index_path(store_root).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or data.get("schema") != INDEX_SCHEMA:
        return None
    docs = data.get("docs", {})
    keys = sorted(docs)
    apps = [docs[key].get("app", "") for key in keys]
    postings: dict[str, set[Posting]] = {}
    for term, flat in data.get("terms", {}).items():
        pairs = iter(flat)
        postings[term] = {
            (apps[doc], keys[doc], txn) for doc, txn in zip(pairs, pairs)
        }
    return docs, postings


# ------------------------------------------------------------- building
def build_index(store, *, rebuild: bool = False) -> dict:
    """Build or update the on-disk index; returns its stats dict.

    One loop: list the pending markers, index every stored report the
    doc registry lacks (one envelope read each, marker or not), write
    ``index.json``, then delete the markers listed.  ``rebuild=True``
    runs the same loop from an empty registry, and so does a fold over
    no index, a foreign-schema one or a damaged one.  Either path writes
    the exact same bytes for the same store contents.
    """
    durable = None if rebuild else _read_index(store.root)
    registry, postings = durable or ({}, {})
    # listed before the scan: a marker lands after its envelope, so every
    # marker listed here names a report the scan below sees
    markers = [pending_dir(store.root) / name
               for name in _marker_names(store.root)]
    folded = 0
    for key in store.entries():
        if key in registry:
            continue
        doc = _stored_doc(store, key)
        if doc is None:
            continue
        registry[key] = _registry_entry(doc)
        for term, term_postings in _doc_postings(key, doc).items():
            postings.setdefault(term, set()).update(term_postings)
        folded += 1

    _write_index(store, registry, postings)
    _consume(markers)
    return {**_stats(registry, postings),
            "folded": folded, "rebuilt": durable is None}


def _write_index(store, registry: dict[str, dict],
                 postings: dict[str, set[Posting]]) -> None:
    """Serialise registry + postings into ``index.json``: one atomic
    write."""
    position = {key: doc for doc, key in enumerate(sorted(registry))}
    terms: dict[str, list[int]] = {}
    for term, term_postings in postings.items():
        pairs = sorted((position[key], txn)
                       for _app, key, txn in term_postings)
        terms[term] = [n for pair in pairs for n in pair]
    # the marker directory is part of the tree layout: tree comparisons
    # (diff -r) should see identical structure
    pending_dir(store.root).mkdir(parents=True, exist_ok=True)
    atomic_write(index_path(store.root), canonical_json({
        "schema": INDEX_SCHEMA,
        "docs": registry,
        "terms": terms,
    }))


def _consume(paths: list[Path]) -> None:
    for path in paths:
        try:
            path.unlink()
        except OSError:
            pass


__all__ = [
    "FleetIndex",
    "INDEX_SCHEMA",
    "build_index",
    "index_path",
    "index_root",
    "pending_dir",
    "write_pending_delta",
]
