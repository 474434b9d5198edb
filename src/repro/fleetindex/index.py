"""The on-disk inverted index: segments, manifest, pending markers.

Layout — a side-band ``index/`` tree inside the result store, invisible
to report listings exactly like the ``manifests/`` tree::

    <store>/index/MANIFEST.json        schema, segment ids, stats
    <store>/index/segments/<sha>.json  term -> postings, sharded by term
    <store>/index/docs/<sha>.json      doc registry (key -> app/summary/labels)
    <store>/index/pending/<key>.json   empty marker: a report not yet folded

**Determinism.**  Index bytes are a pure function of the set of indexed
envelopes: postings are sorted, terms shard to one of :data:`N_SLOTS`
segments by term hash, every file is canonical JSON named by the sha256
of its own bytes, and the manifest carries no timestamps.  Two
independently built indexes over the same store are therefore
byte-identical trees, and an incremental fold-in reproduces exactly what
a full rebuild would have written.

**Freshness.**  Every report ``put`` creates an empty marker named by
the result key once the envelope has landed.  Readers derive each
unfolded report's document from its envelope at load time (memoized per
key across reloads: an envelope never changes), so a query issued right
after a batch sees every new report with zero rebuild; ``repro index``
folds every stored report the durable tree lacks into the segments and
then deletes the markers it listed.

**Crash safety.**  Segment/doc files are content-addressed and the
manifest is written atomically last, so a crashed builder leaves either
the old index or the new one, never a torn tree (orphaned segment files
are garbage-collected by the next fold).  A segment or doc registry the
manifest names that cannot be read (damaged on disk) or has another
schema is skipped by readers, and the next fold rebuilds from the
envelopes, rewriting every file even where the fresh bytes keep the
damaged file's name.  A report whose marker never landed — its writer
died between the two, or the marker write failed — is missing from
readers until the next fold, which finds it by scanning the stored
envelopes; a marker without an envelope is dropped by the fold.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..service.store import atomic_write, canonical_json
from .docs import extract_doc

#: Bump when the index layout (manifest, segment or docs shape) changes
#: incompatibly; a mismatched tree reads as "no index".
INDEX_SCHEMA = 1

#: Terms shard to ``sha256(term) % N_SLOTS`` segments.  Fixed — changing
#: it is an index schema change.
N_SLOTS = 16

#: A posting: where one transaction lives.
Posting = tuple[str, str, int]  # (app, result key, txn id)


# ------------------------------------------------------------------ paths
def index_root(store_root: str | Path) -> Path:
    return Path(store_root) / "index"


def pending_dir(store_root: str | Path) -> Path:
    return index_root(store_root) / "pending"


def manifest_path(store_root: str | Path) -> Path:
    return index_root(store_root) / "MANIFEST.json"


def _read_json(path: Path) -> dict | None:
    try:
        data = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def term_slot(term: str) -> int:
    digest = hashlib.sha256(term.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % N_SLOTS


# ---------------------------------------------------------------- pending
def write_pending_delta(store_root: str | Path, key: str) -> None:
    """Mark one freshly stored report as unfolded: an empty
    ``index/pending/<key>.json``.

    Called by :meth:`ResultStore.put` after the envelope has landed.
    The marker carries nothing — readers derive the document from the
    envelope — so it is not fsynced: a lost marker only hides the report
    until the next fold, which indexes every stored report the durable
    tree lacks.
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

    ``load()`` reads the manifest tree and overlays, in memory (never on
    disk), the document of every marked report the tree lacks, derived
    from its envelope, so the view is current with the store.
    ``refresh()`` is the cheap staleness probe the HTTP service calls per
    query: it reloads only when the manifest or the marker set changed.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.root = index_root(store.root)
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
            manifest_stat = manifest_path(self.store.root).stat()
            manifest = (manifest_stat.st_mtime_ns, manifest_stat.st_size)
        except OSError:
            manifest = None
        return (manifest, _marker_names(self.store.root))

    def refresh(self) -> "FleetIndex":
        state = self._disk_state()
        if state != self._loaded_state:
            self.load()
            self._loaded_state = state
        return self

    def load(self) -> "FleetIndex":
        self.docs, self.postings, _ = _load_tree(self.store, self.manifest())
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

    def manifest(self) -> dict | None:
        return _read_manifest(self.store.root)

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
        return {
            "docs": len(self.docs),
            "apps": len({d.get("app", "") for d in self.docs.values()}),
            "terms": len(self.postings),
            "postings": sum(len(p) for p in self.postings.values()),
            "pending": self.pending_count,
        }


def _read_manifest(store_root: str | Path) -> dict | None:
    """The index manifest, or ``None`` when absent, unreadable or of
    another schema."""
    manifest = _read_json(manifest_path(store_root))
    if manifest is None or manifest.get("schema") != INDEX_SCHEMA:
        return None
    return manifest


def _load_tree(store, manifest: dict | None) -> tuple[dict, dict, bool]:
    """Rehydrate ``(doc registry, postings, intact)`` from the manifest
    tree — empty maps when there is no (or a foreign-schema) index yet.
    A file the manifest names that cannot be read or has another schema
    is skipped and clears ``intact``: readers keep what is left, a fold
    rebuilds."""
    docs: dict[str, dict] = {}
    postings: dict[str, set[Posting]] = {}
    if manifest is None:
        return docs, postings, False
    root = index_root(store.root)
    intact = True
    for sha in manifest.get("segments", {}).values():
        segment = _read_json(root / "segments" / f"{sha}.json")
        if segment is None or segment.get("schema") != INDEX_SCHEMA:
            intact = False
            continue
        for term, term_postings in segment.get("terms", {}).items():
            postings[term] = {
                (app, key, int(txn)) for app, key, txn in term_postings
            }
    registry = _read_json(root / "docs" / f"{manifest.get('docs')}.json")
    if registry is not None and registry.get("schema") == INDEX_SCHEMA:
        docs = dict(registry.get("docs", {}))
    else:
        intact = False
    return docs, postings, intact


# ------------------------------------------------------------- building
def build_index(store, *, rebuild: bool = False) -> dict:
    """Build or update the on-disk index; returns its stats dict.

    One loop: list the pending markers, index every stored report the
    doc registry lacks (one envelope read each, marker or not), write the
    tree, then delete the markers listed.  ``rebuild=True`` runs the same
    loop from an empty registry, and so does a fold over no index, a
    foreign-schema one or a damaged one.  Either path writes the exact
    same bytes for the same store contents.
    """
    registry, postings, intact = _load_tree(
        store, None if rebuild else _read_manifest(store.root)
    )
    if not intact:
        registry, postings = {}, {}
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

    stats = _write_index_from_postings(store, registry, postings,
                                       rewrite=not intact)
    _consume(markers)
    stats["folded"] = folded
    stats["rebuilt"] = not intact
    return stats


def _write_index_from_postings(store, registry: dict[str, dict],
                               postings: dict[str, set[Posting]], *,
                               rewrite: bool) -> dict:
    """Serialise postings + registry into the content-addressed tree and
    swing the manifest; garbage-collects superseded files.  A fold skips
    a file whose name exists (same name, same bytes); ``rewrite`` writes
    every file, so a rebuild replaces a damaged one its fresh bytes still
    name."""
    root = index_root(store.root)
    seg_dir = root / "segments"
    docs_dir = root / "docs"
    # the marker directory is part of the tree layout: tree comparisons
    # (diff -r) should see identical structure
    pending_dir(store.root).mkdir(parents=True, exist_ok=True)

    slots: list[dict] = [{} for _ in range(N_SLOTS)]
    for term in sorted(postings):
        slots[term_slot(term)][term] = sorted(
            [app, key, txn] for app, key, txn in postings[term]
        )
    segment_shas: dict[str, str] = {}
    keep_segments: set[str] = set()
    for slot, terms in enumerate(slots):
        text = canonical_json({
            "schema": INDEX_SCHEMA, "slot": slot, "terms": terms
        })
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        segment_shas[f"{slot:02d}"] = sha
        keep_segments.add(f"{sha}.json")
        path = seg_dir / f"{sha}.json"
        if rewrite or not path.exists():
            atomic_write(path, text)

    registry_text = canonical_json({
        "schema": INDEX_SCHEMA,
        "docs": {key: registry[key] for key in sorted(registry)},
    })
    docs_sha = hashlib.sha256(registry_text.encode("utf-8")).hexdigest()
    docs_path = docs_dir / f"{docs_sha}.json"
    if rewrite or not docs_path.exists():
        atomic_write(docs_path, registry_text)

    stats = {
        "docs": len(registry),
        "apps": len({d.get("app", "") for d in registry.values()}),
        "terms": len(postings),
        "postings": sum(len(p) for p in postings.values()),
        "segments": N_SLOTS,
    }
    atomic_write(manifest_path(store.root), canonical_json({
        "schema": INDEX_SCHEMA,
        "slots": N_SLOTS,
        "segments": segment_shas,
        "docs": docs_sha,
        "stats": stats,
    }))

    _gc_dir(seg_dir, keep_segments)
    _gc_dir(docs_dir, {f"{docs_sha}.json"})
    return dict(stats)


def _gc_dir(directory: Path, keep: set[str]) -> None:
    """Drop every file the fresh manifest does not reference — superseded
    segments and builder temp files alike."""
    try:
        names = list(directory.iterdir())
    except OSError:
        return
    for path in names:
        if path.name not in keep:
            try:
                path.unlink()
            except OSError:
                pass


def _consume(paths: list[Path]) -> None:
    for path in paths:
        try:
            path.unlink()
        except OSError:
            pass


__all__ = [
    "FleetIndex",
    "INDEX_SCHEMA",
    "N_SLOTS",
    "build_index",
    "index_root",
    "manifest_path",
    "pending_dir",
    "term_slot",
    "write_pending_delta",
]
