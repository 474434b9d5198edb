"""Stdlib HTTP JSON API around the job scheduler and result store.

Endpoints::

    POST /analyze          {"target": "<corpus key | .sapk path>",
                            "config": {...AnalysisConfig overrides}}
                           — or a raw ``.sapk`` zip body
                           (Content-Type: application/zip) with config
                           overrides in the X-Repro-Config header
    GET  /jobs             all jobs
    GET  /jobs/<id>        one job
    GET  /report/<key>     stored report envelope by result key (read
                           through ``ResultStore.lookup``: 404 for any
                           file it rejects)
    GET  /reports          metadata of stored reports (key, app, config
                           key, schema, transaction count, summary),
                           paginated: ``?limit=&cursor=`` with an opaque
                           ``next_cursor`` in the response
    GET  /search           fleet index query: ``?q=<query>`` with the
                           ``repro search`` grammar (``host:``, ``path:``,
                           ``field:``, ``app:``, ``like:<app>/<txn>``,
                           free text), paginated like ``/reports``;
                           counts ``search_queries`` and observes
                           ``search_latency`` seconds
    GET  /catalog          the fleet app catalog (per-app keys, hosts,
                           endpoint/dependency aggregates), paginated
    GET  /diff/<k1>/<k2>   protocol diff of two stored reports, computed
                           on every request; writes nothing to the store
    GET  /metrics          counters / gauges / histograms + store stats
                           (JSON by default; ``?format=prometheus`` or an
                           ``Accept: text/plain`` header switches to
                           Prometheus text exposition, including per-phase
                           and per-family latency histograms and
                           ``worker_up`` liveness gauges)
    GET  /status           fleet status: uptime, job tallies, worker
                           liveness, store stats, recent run-ledger entries
    GET  /healthz          liveness + queue snapshot

``POST /analyze`` answers ``202`` with the job (``200`` when the result
was already stored — the job is born done as a cache hit), and ``400`` for
a body that is not a JSON object with a non-empty string ``target``, a
malformed bundle, or an unknown config field or mode.  The server is
a ``ThreadingHTTPServer``: concurrent posts for the same APK are collapsed
onto one job by the scheduler's in-flight deduplication.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from urllib.parse import parse_qs, urlsplit

from ..apk.loader import load_apk
from ..core.config import AnalysisConfig, apply_overrides
from ..obs.metrics import MetricsRegistry, render_prometheus
from .jobs import JobScheduler, QueueFull, lookup_message, resolve_target
from .store import ResultStore

_ZIP_TYPES = {"application/zip", "application/octet-stream"}


class AnalysisService:
    """The service facade: one store + one scheduler + one HTTP server."""

    def __init__(
        self,
        store_root: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 8425,
        workers: int = 2,
        max_queue: int = 128,
        timeout: float | None = None,
        retries: int = 1,
        analyzer=None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.store = ResultStore(store_root)
        self.scheduler = JobScheduler(
            self.store,
            workers=workers,
            max_queue=max_queue,
            timeout=timeout,
            retries=retries,
            metrics=self.metrics,
            analyzer=analyzer,
        )
        handler = _make_handler(self)
        self.server = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None
        # fleet search: one shared index view, refreshed per query (the
        # refresh is a stat probe unless the store actually changed);
        # searches trace under ``span``: NULL_SPAN keeps a long-lived
        # daemon from accumulating spans; a caller that wants them sets a
        # root Span
        from ..obs.tracer import NULL_SPAN

        self.span = NULL_SPAN
        self._index = None
        self._index_lock = threading.Lock()
        from ..obs.ledger import RunLedger, new_run_id

        self.run_id = new_run_id()
        self.ledger = RunLedger(store_root)
        self._started_unix = time.time()

    # ---------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AnalysisService":
        """Serve in a background thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.server.serve_forever()

    def stop(self, *, drain: bool = True) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(5)
        self.scheduler.shutdown(drain=drain)
        self._append_serve_record()

    def _append_serve_record(self) -> None:
        """One ledger entry summarising the daemon's whole serving run."""
        from ..obs.ledger import RunRecord

        counts = self.scheduler.counts()
        try:
            self.ledger.append(
                RunRecord(
                    run_id=self.run_id,
                    kind="serve",
                    label=self.url,
                    started_unix=self._started_unix,
                    wall_s=round(time.time() - self._started_unix, 3),
                    executor="thread",
                    workers=self.scheduler.workers,
                    targets=counts.total(),
                    done=counts["done"],
                    failed=counts["failed"],
                    cache_hits=sum(j.cache_hit for j in self.scheduler.jobs()),
                    analyses_run=self.metrics.counter("analyses_run").value,
                )
            )
        except OSError:
            pass  # a read-only store must not break shutdown

    # ---------------------------------------------------------- handlers
    def handle_analyze(self, body: bytes, content_type: str, headers) -> tuple[int, dict]:
        overrides: dict | None = None
        if content_type.split(";")[0].strip() in _ZIP_TYPES:
            raw = headers.get("X-Repro-Config")
            if raw:
                overrides = json.loads(raw)
            apk, config, label = self._load_bundle(body, overrides)
        else:
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError:
                return 400, {"error": "request body is not valid JSON"}
            if not isinstance(payload, dict):
                return 400, {"error": "request body is not a JSON object"}
            target = payload.get("target")
            if not target:
                return 400, {"error": "missing 'target'"}
            if not isinstance(target, str):
                return 400, {"error": "'target' is not a string"}
            overrides = payload.get("config")
            try:
                apk, config, label = resolve_target(target, overrides)
            except LookupError as exc:
                return 404, {"error": lookup_message(exc)}
            except ValueError as exc:
                return 400, {"error": str(exc)}
        try:
            job = self.scheduler.submit(apk, config, label=label)
        except QueueFull as exc:
            return 429, {"error": str(exc)}
        return (200 if job.cache_hit else 202), {"job": job.to_dict()}

    def _load_bundle(self, body: bytes, overrides: dict | None):
        with tempfile.NamedTemporaryFile(suffix=".zip") as tmp:
            tmp.write(body)
            tmp.flush()
            apk = load_apk(tmp.name)
        config = AnalysisConfig()
        apply_overrides(config, overrides)
        return apk, config, apk.name or "uploaded"

    def _set_job_gauges(self) -> None:
        """Set the ``queue_depth`` and ``running`` gauges from the job
        table's counts."""
        counts = self.scheduler.counts()
        self.metrics.gauge("queue_depth").set(counts["queued"])
        self.metrics.gauge("running").set(counts["running"])

    def handle_metrics(self) -> dict:
        self._set_job_gauges()
        data = self.metrics.to_dict()
        data["store"] = self.store.stats()
        return data

    def handle_metrics_prometheus(self) -> str:
        """The registry in Prometheus text exposition format, with the
        store stats mirrored in as gauges and one ``worker_up`` liveness
        gauge per scheduler worker."""
        self._set_job_gauges()
        for name, value in self.store.stats().items():
            self.metrics.gauge(f"store_{name}").set(int(value))
        for worker in self.scheduler.worker_status():
            self.metrics.gauge(
                "worker_up", labels={"worker": worker["worker"]}
            ).set(int(worker["alive"]))
        return render_prometheus(self.metrics)

    def handle_status(self) -> dict:
        """Fleet status: what is this daemon doing right now, and what has
        this store seen recently."""
        counts = self.scheduler.counts()
        return {
            "status": "ok",
            "run_id": self.run_id,
            "uptime_s": round(time.time() - self._started_unix, 3),
            "executor": "thread",
            "jobs": {"total": counts.total(), **counts},
            "workers": self.scheduler.worker_status(),
            "store": self.store.stats(),
            "recent_runs": [
                {
                    "run_id": record.get("run_id"),
                    "kind": record.get("kind"),
                    "label": record.get("label"),
                    "targets": record.get("targets"),
                    "failed": record.get("failed"),
                    "wall_s": record.get("wall_s"),
                }
                for record in self.ledger.tail(5)
            ],
        }

    # ------------------------------------------------------------- search
    def _fleet_index(self):
        from ..fleetindex.index import FleetIndex

        if self._index is None:
            self._index = FleetIndex(self.store)
        return self._index.refresh()

    def handle_search(
        self, q: str, limit: int | None, cursor: str | None
    ) -> tuple[int, dict]:
        from ..fleetindex.query import QueryError, run_search

        if not q:
            return 400, {"error": "missing 'q' query parameter"}
        self.metrics.counter("search_queries").inc()
        started = time.perf_counter()
        # one lock around refresh + query: refresh() swaps the in-memory
        # maps, and ThreadingHTTPServer handles requests concurrently
        with self._index_lock:
            index = self._fleet_index()
            try:
                result = run_search(
                    index, q, limit=limit, cursor=cursor, span=self.span
                )
            except QueryError as exc:
                return 400, {"error": str(exc)}
        self.metrics.histogram("search_latency").observe(
            time.perf_counter() - started
        )
        return 200, result

    def handle_catalog(
        self, limit: int | None, cursor: str | None
    ) -> tuple[int, dict]:
        from ..fleetindex.query import catalog

        with self._index_lock:
            return 200, catalog(
                self._fleet_index(), limit=limit, cursor=cursor
            )

    def handle_reports(
        self, limit: int | None, cursor: str | None
    ) -> tuple[int, dict]:
        from ..fleetindex.query import paginate

        entries = self.store.list_entries()
        page, next_cursor = paginate(
            entries,
            limit=limit,
            cursor=cursor,
            sort_key=lambda e: [e["app"], e["stored_at"], e["key"]],
        )
        return 200, {
            "reports": page,
            "total": len(entries),
            "next_cursor": next_cursor,
        }

    def handle_diff(self, old_key: str, new_key: str) -> tuple[int, dict]:
        from ..diff.engine import stored_diff

        diff = stored_diff(self.store, old_key, new_key)
        if diff is None:
            return 404, {
                "error": "one or both report keys are not in the store"
            }
        self.metrics.counter("diffs_computed").inc()
        return 200, {"old_key": old_key, "new_key": new_key, "diff": diff}

    def handle_healthz(self) -> dict:
        counts = self.scheduler.counts()
        return {
            "status": "ok",
            "jobs": counts.total(),
            "queued": counts["queued"],
            "running": counts["running"],
            "store_entries": len(self.store.entries()),
        }


def _paging(query: dict) -> tuple[int | None, str | None]:
    """``(limit, cursor)`` from parsed query params; garbage limits fall
    back to the default page size."""
    try:
        limit = int(query.get("limit", [""])[0]) or None
    except ValueError:
        limit = None
    return limit, query.get("cursor", [None])[0]


def _make_handler(service: AnalysisService):
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-service/1"
        protocol_version = "HTTP/1.1"

        # silence per-request stderr logging; metrics cover observability
        def log_message(self, fmt, *args) -> None:
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload, sort_keys=True, indent=2).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str, content_type: str) -> None:
            body = text.encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            url = urlsplit(self.path)
            path = url.path.rstrip("/")
            query = parse_qs(url.query)
            if path == "/healthz":
                self._send(200, service.handle_healthz())
            elif path == "/status":
                self._send(200, service.handle_status())
            elif path == "/metrics":
                wants_text = query.get("format", [""])[0] == "prometheus" or (
                    "text/plain" in self.headers.get("Accept", "")
                )
                if wants_text:
                    self._send_text(
                        200,
                        service.handle_metrics_prometheus(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    self._send(200, service.handle_metrics())
            elif path == "/jobs":
                self._send(
                    200,
                    {"jobs": [j.to_dict() for j in service.scheduler.jobs()]},
                )
            elif path.startswith("/jobs/"):
                job = service.scheduler.job(path.removeprefix("/jobs/"))
                if job is None:
                    self._send(404, {"error": "no such job"})
                else:
                    self._send(200, {"job": job.to_dict()})
            elif path == "/reports":
                self._send(
                    200, service.handle_reports(*_paging(query))[1]
                )
            elif path == "/search":
                status, payload = service.handle_search(
                    query.get("q", [""])[0], *_paging(query)
                )
                self._send(status, payload)
            elif path == "/catalog":
                status, payload = service.handle_catalog(*_paging(query))
                self._send(status, payload)
            elif path.startswith("/report/"):
                envelope = service.store.lookup(
                    path.removeprefix("/report/")
                )
                if envelope is None:
                    self._send(404, {"error": "no such report"})
                else:
                    self._send(200, envelope)
            elif path.startswith("/diff/"):
                parts = path.removeprefix("/diff/").split("/")
                if len(parts) != 2 or not all(parts):
                    self._send(
                        400, {"error": "expected /diff/<old_key>/<new_key>"}
                    )
                else:
                    try:
                        status, payload = service.handle_diff(*parts)
                    except Exception as exc:  # defensive, like do_POST
                        status, payload = 500, {
                            "error": f"{type(exc).__name__}: {exc}"
                        }
                    self._send(status, payload)
            else:
                self._send(404, {"error": f"unknown path {self.path!r}"})

        def do_POST(self) -> None:
            if self.path.rstrip("/") != "/analyze":
                self._send(404, {"error": f"unknown path {self.path!r}"})
                return
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            content_type = self.headers.get("Content-Type", "application/json")
            try:
                status, payload = service.handle_analyze(
                    body, content_type, self.headers
                )
            except ValueError as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # defensive: never kill the acceptor
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            self._send(status, payload)

    return Handler


__all__ = ["AnalysisService"]
