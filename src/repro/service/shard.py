"""The batch engine: one coordinator dispatching entries to analyzer
workers over one shared result store.

Analyses are pure-Python CPU work, so threads top out at the GIL.
:func:`run_sharded_batch` therefore spreads a batch over ``N`` analyzer
*processes*; at one worker it runs the same per-entry function over the
targets in order in the calling process instead of forking:

* **One dispatcher.**  The coordinator hands each worker one entry index
  at a time over that worker's own duplex pipe; the worker sends back the
  entry's :class:`ShardRecord` and gets the next index, or ``None`` to
  stop.  Entries go out in input order to whichever worker is free, so a
  fast worker takes more of them, and the coordinator always knows which
  entry each worker holds and since when.  A worker that dies (EOF or a
  torn frame on its pipe) fails exactly the entry it held, with its own
  exit code; the entries nobody started go to the live workers.
* **The result-key lease.**  After resolution, the store-wide *lease* on
  the result key (:meth:`~repro.service.store.ResultStore.claim`) dedups
  in-flight analyses across *independent* processes and daemons sharing
  the store: a worker that loses the lease race waits for the winner's
  envelope to land instead of re-analysing.
* **Result-carried observability.**  A :class:`ShardRecord` is the one
  record of a batch entry: it travels back over its worker's pipe with its
  wall time, attempt count, per-phase seconds (copied from the report's
  :class:`~repro.obs.phases.PhaseStats`) and counters.  The CLI's totals,
  the run ledger and the progress line are derived from the records; each
  worker's span stream is written beside them.

Reports written by sharded workers are byte-identical to in-process
output: the store writes canonical JSON, and
``tests/test_service_shard.py`` and ``tests/test_process_determinism.py``
assert it under both start methods.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import uuid
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import util
from multiprocessing.connection import wait
from pathlib import Path

#: Start methods this module knows how to drive, in preference order.
START_METHODS = ("fork", "spawn")

#: How long a worker waits (total) for another process's in-flight analysis
#: of the same key before giving up and analysing itself.
LEASE_WAIT_SECONDS = 60.0
_LEASE_POLL = 0.02


def available_start_methods() -> tuple[str, ...]:
    supported = multiprocessing.get_all_start_methods()
    return tuple(m for m in START_METHODS if m in supported)


def default_start_method() -> str | None:
    """``fork`` where available, else ``spawn``; honours the
    ``REPRO_START_METHOD`` environment override (useful for exercising the
    spawn path on fork-capable hosts, e.g. the CI proc-smoke job)."""
    forced = os.environ.get("REPRO_START_METHOD")
    methods = available_start_methods()
    if forced:
        return forced if forced in methods else None
    return methods[0] if methods else None


def expand_batch_targets(targets: list[str]) -> list[str]:
    """Expand population specs (``synth:<families>*<scale>[@<seed>]``) into
    self-describing ``syn-`` keys any worker process can rebuild, and reject
    a target that names no app before any worker starts."""
    from ..corpus import app_keys
    from ..synth import expand_targets, is_synth_key, parse_app_key

    targets = expand_targets(list(targets))
    known: set[str] | None = None
    for target in targets:
        if is_synth_key(target):
            parse_app_key(target)  # raises KeyError on a malformed key
            continue
        if known is None:
            # built on first need: the registry materializes every
            # hand-written corpus app, which an all-synth batch skips
            known = set(app_keys())
        if target not in known and not Path(target).exists():
            raise LookupError(
                f"{target!r} is neither a corpus app key, a synthesized "
                f"app key, a population spec, nor an .sapk bundle"
            )
    return targets


class LeaseWaitTimeout(TimeoutError):
    """Another process held the entry's result-key lease for longer than
    :data:`LEASE_WAIT_SECONDS` without storing a result."""


@dataclass
class ShardRecord:
    """One batch entry's outcome, as reported by the worker that ran it."""

    index: int
    target: str
    #: the worker that held the entry (-1 when no worker started it)
    worker: int
    status: str = "done"  # done | failed
    cache_hit: bool = False
    label: str = ""
    result_key: str | None = None
    attempts: int = 0
    seconds: float = 0.0
    #: combined "<Type>: <message>" string (kept for compatibility);
    #: ``error_type``/``error_message`` carry the structured split so
    #: ``repro runs show`` can explain *why* an app failed
    error: str | None = None
    error_type: str | None = None
    error_message: str | None = None
    traceback: str | None = None
    #: per-phase wall seconds from the worker-side PhaseStats
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: worker-side counts: ``analyses_run``, ``jobs_retried``,
    #: ``lease_waits``
    counters: dict[str, int] = field(default_factory=dict)

    def fail(self, exc: BaseException, *, trace: bool = False) -> None:
        """Record a structured failure from an exception."""
        self.status = "failed"
        self.error_type = type(exc).__name__
        self.error_message = str(exc)
        self.error = f"{self.error_type}: {self.error_message}"
        if trace:
            self.traceback = traceback.format_exc()

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "target": self.target,
            "worker": self.worker,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "label": self.label,
            "result_key": self.result_key,
            "attempts": self.attempts,
            "seconds": self.seconds,
            "error": self.error,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "traceback": self.traceback,
            "phase_seconds": self.phase_seconds,
            "counters": self.counters,
        }


def _analyze_once(apk, config, timeout: float | None, tracer=None):
    from .jobs import call_with_timeout

    def run():
        from ..core.extractocol import Extractocol

        if tracer is not None:
            return Extractocol(config, tracer=tracer).analyze(apk)
        return Extractocol(config).analyze(apk)

    return call_with_timeout(run, timeout)


def _process_item(
    store,
    index: int,
    target: str,
    overrides: dict | None,
    *,
    worker_id: int,
    retries: int,
    backoff: float,
    timeout: float | None,
    span=None,
) -> ShardRecord:
    """Resolve, dedup and (if needed) analyse one batch entry.
    When ``span`` is given the analysis trace nests under it (see
    :class:`~repro.obs.tracer.SpanTracer`)."""
    from ..obs.tracer import SpanTracer
    from .jobs import resolve_target
    from .store import result_key

    tracer = SpanTracer(span) if span is not None and span else None
    record = ShardRecord(index=index, target=target, worker=worker_id)
    try:
        apk, config, label = resolve_target(target, overrides)
    except Exception as exc:
        record.fail(exc, trace=True)
        record.label = target
        return record
    record.label = label

    from ..apk.loader import apk_digest

    digest = apk_digest(apk)
    key = result_key(digest, config.cache_key())
    record.result_key = key
    started = time.monotonic()

    if store.get(digest, config.cache_key()) is not None:
        record.cache_hit = True
        record.seconds = time.monotonic() - started
        return record

    if not store.claim(key, owner=f"shard-{worker_id}"):
        # an independent process is analysing this key right now: wait for
        # its envelope instead of duplicating the work
        deadline = time.monotonic() + LEASE_WAIT_SECONDS
        while time.monotonic() < deadline:
            if store.get(digest, config.cache_key()) is not None:
                record.cache_hit = True
                record.counters["lease_waits"] = 1
                record.seconds = time.monotonic() - started
                return record
            if store.claim(key, owner=f"shard-{worker_id}"):
                break  # holder vanished without a result — take over
            time.sleep(_LEASE_POLL)
        else:
            record.fail(LeaseWaitTimeout(
                f"timed out waiting for in-flight analysis of {key} "
                f"(lease holder: {store.lease_holder(key)})"
            ))
            record.seconds = time.monotonic() - started
            return record

    try:
        for attempt in range(1, retries + 2):
            record.attempts = attempt
            try:
                report = _analyze_once(apk, config, timeout, tracer)
                record.counters["analyses_run"] = (
                    record.counters.get("analyses_run", 0) + 1
                )
                stats = getattr(report, "phase_stats", None)
                if stats is not None:
                    record.phase_seconds = {
                        phase: round(seconds, 6)
                        for phase, seconds in stats.seconds.items()
                    }
                store.put(digest, config.cache_key(), report)
                record.seconds = time.monotonic() - started
                return record
            except Exception as exc:
                # structured detail only; status stays "done" until the
                # retry budget is exhausted (a later attempt may succeed)
                record.error_type = type(exc).__name__
                record.error_message = str(exc)
                record.error = f"{record.error_type}: {record.error_message}"
                record.traceback = traceback.format_exc()
                from .jobs import JobTimeout

                if isinstance(exc, JobTimeout):
                    break  # a deadline blow-through is not transient
                if attempt <= retries:
                    record.counters["jobs_retried"] = (
                        record.counters.get("jobs_retried", 0) + 1
                    )
                    time.sleep(backoff * (2 ** (attempt - 1)))
        record.status = "failed"
        record.seconds = time.monotonic() - started
        return record
    finally:
        store.release(key)


class _Worker:
    """One analyzer's state across the entries it runs: a store handle and,
    with telemetry on, the span tree its ``job:<target>`` spans join."""

    def __init__(
        self,
        worker_id: int,
        targets: list[str],
        store_root: str,
        overrides: dict | None,
        batch_id: str,
        retries: int,
        backoff: float,
        timeout: float | None,
        telemetry_dir: str | None,
    ) -> None:
        from .store import ResultStore

        self.worker_id = worker_id
        self.targets = targets
        self.store = ResultStore(store_root)
        self.overrides = overrides
        self.batch_id = batch_id
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.telemetry = self.root_span = None
        if telemetry_dir is not None:
            from ..obs.fleet import WorkerTelemetry
            from ..obs.tracer import Span

            self.telemetry = WorkerTelemetry(telemetry_dir, worker_id,
                                             batch_id)
            self.root_span = Span(f"worker-{worker_id}")
            self.root_span.set("run_id", batch_id)
            self.root_span.set("worker", worker_id)

    def run(self, index: int) -> ShardRecord:
        """Run entry ``index``; with telemetry on it becomes a ``job:<target>``
        span, tagged with run/worker correlation ids, under which the whole
        analysis trace nests."""
        target = self.targets[index]
        job_span = None
        if self.root_span is not None:
            job_span = self.root_span.child(f"job:{target}")
            job_span.set("index", index)
            job_span.set("app_key", str(target))
            job_span.set("run_id", self.batch_id)
            job_span.set("worker", self.worker_id)
        record = _process_item(
            self.store,
            index,
            target,
            self.overrides,
            worker_id=self.worker_id,
            retries=self.retries,
            backoff=self.backoff,
            timeout=self.timeout,
            span=job_span,
        )
        if job_span is not None:
            job_span.seconds = record.seconds
            job_span.set("status", record.status)
            job_span.set("cache_hit", record.cache_hit)
            for name, amount in record.counters.items():
                job_span.count(name, amount)
        return record

    def close(self) -> None:
        """Write the worker's span stream, if it keeps one."""
        if self.telemetry is not None:
            try:
                self.telemetry.write_trace(self.root_span)
            except OSError:
                pass  # telemetry must never take the batch down


def _shard_worker(worker_id: int, conn, *args) -> None:
    """Analyzer worker process: receive an entry index over ``conn``, send
    back its record, and repeat until the coordinator sends ``None``."""
    worker = _Worker(worker_id, *args)
    try:
        while (index := conn.recv()) is not None:
            conn.send(worker.run(index).to_dict())
    except (EOFError, ConnectionError):
        pass  # the coordinator is gone; nobody is left to report to
    finally:
        worker.close()


def run_sharded_batch(
    store_root: str | os.PathLike,
    targets: list[str],
    *,
    workers: int,
    overrides: dict | None = None,
    retries: int = 1,
    backoff: float = 0.05,
    timeout: float | None = None,
    start_method: str | None = None,
    run_id: str | None = None,
    telemetry_dir: str | os.PathLike | None = None,
    progress=None,
    out_meta: dict | None = None,
) -> list[ShardRecord]:
    """Run ``targets`` through ``workers`` analyzer workers; returns one
    :class:`ShardRecord` per target, in input order.

    The worker count is clamped to the number of targets.  At one worker
    the entries run in this process (no fork, and ``REPRO_START_METHOD``
    is not read); otherwise each worker is a process started with
    ``start_method`` (default :func:`default_start_method`), and a start
    method that names nothing usable raises :class:`ValueError` before any
    worker starts.

    Fleet telemetry: pass ``run_id`` and ``telemetry_dir`` to make each
    worker write a span stream there; after the batch the coordinator
    merges the streams into a deterministic ``fleet.trace.jsonl``.
    ``progress`` is called as ``progress(record, done, total, in_flight)``
    per completed entry (live, in completion order), where ``in_flight``
    maps each worker still holding an entry to ``(target, since)``, a
    :func:`time.monotonic` start.  ``out_meta``, when given, is filled
    with the run's side facts (run_id, effective worker count,
    telemetry/fleet-trace paths).
    """
    from .store import ResultStore

    if not targets:
        if out_meta is not None:
            out_meta.update(run_id=run_id, workers=0)
        return []
    workers = max(1, min(workers, len(targets)))
    method = None
    if workers > 1:
        method = start_method or default_start_method()
        if method is None:
            raise ValueError(
                f"REPRO_START_METHOD={os.environ.get('REPRO_START_METHOD')!r}"
                f" names no usable start method; choose one of "
                f"{', '.join(START_METHODS)}"
            )
    batch_id = run_id or uuid.uuid4().hex[:12]
    if telemetry_dir is not None:
        telemetry_dir = str(telemetry_dir)
        os.makedirs(telemetry_dir, exist_ok=True)

    records: dict[int, ShardRecord] = {}
    held: dict[int, tuple[int, float]] = {}  # worker -> (entry, since)

    def handle(record: ShardRecord) -> None:
        records[record.index] = record
        if progress is not None:
            in_flight = {w: (targets[i], since)
                         for w, (i, since) in held.items()}
            progress(record, len(records), len(targets), in_flight)

    def lose(index: int, worker: int, reason: str) -> None:
        handle(ShardRecord(index=index, target=targets[index], worker=worker,
                           status="failed", label=targets[index],
                           error=f"no result from shard worker ({reason})"))

    args = (list(targets), str(store_root), overrides, batch_id, retries,
            backoff, timeout, telemetry_dir)
    if workers == 1:
        worker = _Worker(0, *args)
        try:
            for index in range(len(targets)):
                try:
                    record = worker.run(index)
                except Exception as exc:
                    # a worker process would die printing this, losing the
                    # entry it held and leaving the rest to nobody
                    traceback.print_exc()
                    lose(index, 0, repr(exc))
                    break
                handle(record)
        finally:
            worker.close()
    else:
        ctx = multiprocessing.get_context(method)
        pending = deque(range(len(targets)))  # entries nobody started
        procs = {}  # the coordinator's end of each pipe -> (worker, process)

        def dispatch(conn, worker: int) -> None:
            """Hand ``worker`` the next entry nobody started, or ``None``."""
            index = pending.popleft() if pending else None
            try:
                conn.send(index)
            except OSError:  # it died after its last record
                if index is not None:
                    pending.appendleft(index)
                return
            if index is not None:
                held[worker] = (index, time.monotonic())

        for i in range(workers):
            conn, child = ctx.Pipe()
            # Every worker forked from here on inherits this end and closes
            # its copy; otherwise this worker would never read EOF once the
            # coordinator is gone.
            util.register_after_fork(conn, type(conn).close)
            p = ctx.Process(target=_shard_worker, args=(i, child, *args),
                            daemon=True)
            p.start()
            # Closed before the next worker forks, so this worker holds the
            # only copy of its end: EOF on ``conn`` means it exited.
            child.close()
            procs[conn] = (i, p)
            dispatch(conn, i)
        while procs:
            for conn in wait(list(procs)):
                worker, p = procs[conn]
                try:
                    payload = conn.recv()
                except (EOFError, OSError):  # exited, or died mid-frame
                    conn.close()
                    del procs[conn]
                    p.join()
                    if worker in held:
                        index, _since = held.pop(worker)
                        lose(index, worker, f"exit code {p.exitcode}")
                    continue
                del held[worker]
                handle(ShardRecord(**payload))
                dispatch(conn, worker)
    for index in range(len(targets)):
        if index not in records:
            lose(index, -1, "every worker exited before it started")
    ResultStore(store_root).reap_lease_temps()

    fleet_trace = None
    if telemetry_dir is not None:
        from ..obs.fleet import write_fleet_trace

        try:
            fleet_trace = str(write_fleet_trace(telemetry_dir))
        except (OSError, ValueError):
            fleet_trace = None  # a crashed worker may leave a torn stream
    if out_meta is not None:
        out_meta["run_id"] = batch_id
        out_meta["workers"] = workers
        out_meta["telemetry_dir"] = telemetry_dir
        out_meta["fleet_trace"] = fleet_trace
    return [records[index] for index in range(len(targets))]


__all__ = [
    "LEASE_WAIT_SECONDS",
    "LeaseWaitTimeout",
    "ShardRecord",
    "expand_batch_targets",
    "run_sharded_batch",
]
