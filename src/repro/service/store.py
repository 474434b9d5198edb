"""Content-addressed on-disk result store.

Analysis results are immutable functions of ``(APK content, semantic
config)``: the parallel engine is differentially tested to produce
byte-identical reports to the serial one, so a report computed once can be
served forever.  The store therefore keys entries by

    ``<sha256 of the canonical .sapk serialisation>-<AnalysisConfig.cache_key()>``

and writes each entry exactly once, atomically (temp file + ``os.replace``
in the same directory), as canonical JSON (``sort_keys=True, indent=2``).
Entries carry a schema version; entries written by an older schema are
treated as misses and rewritten, never mis-parsed; so are unreadable
ones (torn, not JSON, not UTF-8).  Incremental manifests, which nothing
prints, are sorted compact JSON instead: ``json`` encodes that in C.

Layout::

    <root>/objects/<key[:2]>/<key>.json
    <root>/manifests/<manifest key>.json
    <root>/leases/<name>.lease

The two-level fan-out keeps directories small for fleet-sized corpora.

``objects/`` holds report envelopes only, with one writer and one reader
rule: :meth:`ResultStore.put` is the only code that writes there, and
:meth:`ResultStore.lookup` is how every reader gets a stored report
(cache probes, listings, ``GET /report``, ``GET /diff``, the fleet
index).  A file ``lookup`` rejects, such as the ``diff-*`` cache an
older store may hold, stays on disk and reads as absent everywhere.

**Leases** are the cross-process companion to the atomic object writes:
multiple analyzer processes (or daemons) sharing one store claim a lease
file — written aside, then ``os.link``-ed into place, so exactly one
claimant wins and the lease never exists without its content — before
running an analysis, giving in-flight deduplication that survives process
boundaries.  A lease records its holder's pid and claim time; leases whose
holder died or whose age exceeds the TTL are *stale*: the next claimant
breaks one, and the end of every batch reaps them all (same-host pid
liveness — fleet deployments sharing a store across hosts should rely on
the TTL).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import time
from pathlib import Path

from ..core.report import AnalysisReport, report_to_dict

#: Bump when the envelope or report dict shape changes incompatibly.
SCHEMA_VERSION = 1

#: A lease older than this is stale regardless of holder liveness — guards
#: against pid reuse and cross-host holders the liveness probe can't see.
DEFAULT_LEASE_TTL = 600.0


#: the shape of every name :func:`result_key` produces: two hex digests
#: (the APK's and the config's) joined by a dash; their widths stay with
#: ``apk_digest`` and ``AnalysisConfig.cache_key``
_RESULT_KEY = re.compile(r"[0-9a-f]+-[0-9a-f]+")


def result_key(apk_digest: str, config_key: str) -> str:
    """The content address of one analysis result."""
    return f"{apk_digest}-{config_key}"


def manifest_key(app: str, config_key: str) -> str:
    """The address of an app's *latest* incremental manifest.

    Keyed by app name (hashed — names are free-form), not APK digest:
    a warm run analysing version N+1 must find the manifest version N
    left behind, and digests differ across versions by construction.
    Each write replaces the previous version's manifest, so a lineage
    chain (v1 → v2 → v3) always diffs against its immediate ancestor.
    """
    import hashlib

    digest = hashlib.sha256(app.encode("utf-8")).hexdigest()[:16]
    return f"manifest-{digest}-{config_key}"


def canonical_json(data: dict) -> str:
    """The store's one serialisation: byte-stable for identical dicts."""
    return json.dumps(data, sort_keys=True, indent=2)


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` durably and atomically: a temp file in
    the same directory, fsynced, then ``os.replace``-d into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:8]}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Durable cache of analysis reports, content-addressed and versioned.

    ``get`` returns the stored envelope, whose ``report`` is the
    :func:`report_to_dict` form of what ``put`` stored.  Hit/miss/write
    counts are kept once, on the instance, and read through
    :meth:`stats`.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        self.root = Path(root).expanduser()
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.manifests = self.root / "manifests"
        self.leases = self.root / "leases"
        self.lease_ttl = lease_ttl
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.manifest_writes = 0

    # ------------------------------------------------------------- paths
    def path_for(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    def manifest_path(self, key: str) -> Path:
        # Side-band tree: manifests never shadow report keys, never show
        # up in entries()/list_entries(), and a pre-manifest store layout
        # simply reads as "no manifest" (full re-analysis).
        return self.manifests / f"{key}.json"

    def lease_path(self, name: str) -> Path:
        return self.leases / f"{name}.lease"

    # ------------------------------------------------------------- leases
    def claim(self, name: str, *, owner: str | None = None) -> bool:
        """Atomically claim the lease ``name``; True when this caller won.

        The payload is written to a temp file in ``leases/`` and then
        hard-linked into place: ``os.link`` refuses an existing name, so
        exactly one concurrent claimant succeeds, and the lease never
        exists without its content.  A lease left behind by a dead or
        timed-out holder is broken and re-claimed transparently.  Claims
        are advisory: they coordinate *work*, never object reads/writes
        (those stay atomic on their own).
        """
        path = self.lease_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "pid": os.getpid(),
                "owner": owner or f"pid-{os.getpid()}",
                "claimed_unix": time.time(),
            }
        )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            for attempt in range(2):  # second pass only after breaking a stale lease
                try:
                    os.link(tmp, path)
                except FileExistsError:
                    if attempt == 0 and self._lease_stale(path):
                        try:
                            os.unlink(path)
                        except OSError:
                            pass
                        continue
                    return False
                return True
            return False
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def release(self, name: str) -> None:
        """Drop the lease ``name`` (idempotent)."""
        try:
            os.unlink(self.lease_path(name))
        except OSError:
            pass

    def reap(self) -> None:
        """Unlink what killed writers left behind: every stale lease
        (:meth:`_lease_stale`) and the temp files (``.<name>.*.tmp``)
        older than the lease TTL.

        A holder killed after its envelope landed leaves its lease for
        good, since every later probe is a cache hit that never claims it.
        The temp files are claim temps in ``leases/`` and
        :func:`atomic_write` temps in ``objects/<xx>/``, ``manifests/``
        and ``index/``; a live writer holds its own for milliseconds, so
        the TTL is a safe bound."""
        for lease in self.leases.glob("*.lease"):
            if self._lease_stale(lease):
                self.release(lease.stem)
        cutoff = time.time() - self.lease_ttl
        for pattern in ("leases/.*.tmp", "objects/*/.*.tmp",
                        "manifests/.*.tmp", "index/.*.tmp"):
            for tmp in self.root.glob(pattern):
                try:
                    if tmp.stat().st_mtime < cutoff:
                        tmp.unlink()
                except OSError:
                    pass

    def lease_holder(self, name: str) -> dict | None:
        """The live lease's recorded holder, or ``None`` when unclaimed
        (or unreadable)."""
        try:
            return json.loads(self.lease_path(name).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None

    def _lease_stale(self, path: Path) -> bool:
        """A lease is stale when its holder process is gone (same host),
        the lease outlived the TTL, or it cannot be read: :meth:`claim`
        links every lease in whole, so no live claimant leaves one
        unreadable."""
        try:
            info = json.loads(path.read_text())
            claimed = float(info.get("claimed_unix", 0.0))
            pid = int(info.get("pid", 0))
        except FileNotFoundError:
            return False  # vanished — the holder released it; not stale
        except (OSError, AttributeError, TypeError, ValueError):
            return True
        if time.time() - claimed > self.lease_ttl:
            return True
        if pid > 0:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            except (OSError, PermissionError):
                pass  # exists but not ours (or unsupported) — trust the TTL
        return False

    # ------------------------------------------------------------- reads
    def get(self, apk_digest: str, config_key: str) -> dict | None:
        """The stored envelope for ``(apk, config)``, or ``None`` on miss;
        a cache probe, so it counts a hit or a miss."""
        envelope = self.lookup(result_key(apk_digest, config_key))
        self.record(hit=envelope is not None)
        return envelope

    def lookup(self, key: str) -> dict | None:
        """The stored report envelope under result key ``key``, or
        ``None``, with no hit/miss accounting: the one rule for reading a
        stored report.

        A report envelope is a JSON object of the current schema whose
        ``report`` is an object.  Anything else (unreadable, corrupt,
        schema-incompatible, a ``diff-*`` file an older store left) reads
        as ``None``: a cache probe re-analyses and the fresh ``put``
        replaces it, and every other reader answers "not stored".
        """
        envelope = self.load(key)
        if (
            envelope is None
            or envelope.get("schema") != SCHEMA_VERSION
            or not isinstance(envelope.get("report"), dict)
        ):
            return None
        return envelope

    def load(self, key: str) -> dict | None:
        """Parse the file under ``key``: :meth:`lookup`'s parser, with no
        envelope check.  A file that does not parse as a JSON object
        reads as ``None``."""
        path = self.path_for(key)
        try:
            envelope = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        return envelope if isinstance(envelope, dict) else None

    # ------------------------------------------------------------ writes
    def put(
        self, apk_digest: str, config_key: str, report: AnalysisReport
    ) -> str:
        """Store a report; returns its result key.  The only writer of
        ``objects/``.

        The write is atomic: readers either see the complete entry or the
        previous state, never a torn file.  Timing metadata — the report's
        own ``analysis_seconds`` and ``phase_stats`` — lives in the
        envelope, outside ``report``, so the report payload stays
        byte-identical across runs.  Lint findings travel inside the
        report payload (its ``lint`` key) and nowhere else.

        This is the one fsynced write of a report.  An empty pending
        marker then lands in the side-band ``index/`` tree, so fleet
        index readers overlay the report at once (see
        :mod:`repro.fleetindex.index`); a failed marker never fails the
        durable write, and the next index fold indexes the report anyway.
        """
        from ..fleetindex.docs import report_summary
        from ..fleetindex.index import write_pending_delta

        key = result_key(apk_digest, config_key)
        payload = report_to_dict(report)
        envelope = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "apk_digest": apk_digest,
            "config_key": config_key,
            "app": report.app,
            "analysis_seconds": report.analysis_seconds,
            "report": payload,
            # compact queryable block (hosts/endpoint counts/dependency
            # fields) so listings and the catalog never have to walk the
            # full report payload; carries its own summary schema
            "summary": report_summary(payload),
        }
        if report.phase_stats is not None:
            # run-specific profile: envelope metadata, like
            # analysis_seconds — never inside the "report" payload
            envelope["phase_stats"] = report.phase_stats.to_dict()
        atomic_write(self.path_for(key), canonical_json(envelope))
        with self._lock:
            self.writes += 1
        try:
            write_pending_delta(self.root, key)
        except OSError:
            pass
        return key

    # --------------------------------------------------------- manifests
    def put_manifest(self, manifest: dict) -> str:
        """Store an incremental manifest (:mod:`repro.incr.manifest`) in
        the side-band ``manifests/`` tree — invisible to :meth:`get`,
        :meth:`entries` and :meth:`list_entries`, and counted separately
        from report writes."""
        key = manifest_key(manifest["app"], manifest["config_key"])
        envelope = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "app": manifest["app"],
            "config_key": manifest["config_key"],
            "manifest": manifest,
        }
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        atomic_write(self.manifest_path(key), text)
        with self._lock:
            self.manifest_writes += 1
        return key

    def get_manifest(self, app: str, config_key: str) -> dict | None:
        """The latest stored manifest for ``(app, config)``, or ``None``.

        The cache-poisoning guard lives here: an unreadable file, an
        envelope or manifest written under a different schema, whose
        recorded config key does not match the requested one, or missing
        a well-typed ``methods``/``method_fields``/``dps`` the planner
        reads, is treated as absent — the caller falls back to full
        analysis, never to stale reuse or a crash.
        """
        from ..incr.manifest import MANIFEST_SCHEMA

        try:
            envelope = json.loads(
                self.manifest_path(
                    manifest_key(app, config_key)
                ).read_text()
            )
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != SCHEMA_VERSION
        ):
            return None
        manifest = envelope.get("manifest")
        if (
            not isinstance(manifest, dict)
            or manifest.get("schema") != MANIFEST_SCHEMA
            or manifest.get("config_key") != config_key
            or not isinstance(manifest.get("methods"), dict)
            or not isinstance(manifest.get("method_fields"), dict)
            or not isinstance(manifest.get("dps"), list)
        ):
            return None
        return manifest

    # ------------------------------------------------------------- stats
    def record(self, *, hit: bool) -> None:
        """Count one cache outcome: a result served from the store, or one
        that had to be analysed."""
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def entries(self) -> list[str]:
        """All stored result keys, sorted (a directory scan).  Only file
        names of the shape :func:`result_key` produces count: a file
        under any other name, such as the ``diff-*`` cache an older store
        holds, is no report and is never read."""
        return sorted(
            p.stem for p in self.objects.glob("*/*.json")
            if _RESULT_KEY.fullmatch(p.stem)
        )

    def list_entries(self) -> list[dict]:
        """Metadata for every stored report envelope (each of
        :meth:`entries`, read through :meth:`lookup`), sorted by ``(app,
        stored_at, key)``; powers ``GET /reports`` and the CLI's
        latest-two-versions lookup.

        Entries :meth:`lookup` rejects are skipped; the report payload
        itself is not returned — fetch it via the key.  Each entry carries
        the envelope's compact ``summary`` block, recomputed on the fly
        for envelopes that predate it (the backfill path — see
        :func:`repro.fleetindex.docs.envelope_summary`).
        """
        from ..fleetindex.docs import envelope_summary

        out = []
        for key in self.entries():
            envelope = self.lookup(key)
            if envelope is None:
                continue
            report = envelope["report"]
            out.append({
                "key": envelope.get("key", key),
                "app": envelope.get("app", ""),
                "apk_digest": envelope.get("apk_digest", ""),
                "config_key": envelope.get("config_key", ""),
                "schema": envelope.get("schema"),
                "transactions": len(report.get("transactions", ())),
                "summary": envelope_summary(envelope),
                "stored_at": self.path_for(key).stat().st_mtime,
            })
        out.sort(key=lambda e: (e["app"], e["stored_at"], e["key"]))
        return out

    def stats(self) -> dict:
        """The counts, plus ``entries``: a directory scan, run before
        taking the lock so concurrent :meth:`record` and :meth:`put`
        calls never wait on it."""
        entries = len(self.entries())
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "manifest_writes": self.manifest_writes,
                "entries": entries,
                "schema": SCHEMA_VERSION,
            }


__all__ = [
    "DEFAULT_LEASE_TTL",
    "ResultStore",
    "SCHEMA_VERSION",
    "atomic_write",
    "canonical_json",
    "manifest_key",
    "result_key",
]
