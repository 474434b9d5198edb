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
* **One store protocol.**  After resolution, every attempt goes through
  :func:`analyze_through_store`, which daemon jobs
  (:mod:`repro.service.jobs`) and ``repro diff --store`` call too: probe
  the store, take the store-wide *lease* on the result key
  (:meth:`~repro.service.store.ResultStore.claim`) or wait for its
  holder's envelope, probe again once the lease is won, and only then
  analyse, put and release.  Independent batches and daemons sharing a
  store therefore run one analysis per result key.
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

import itertools
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

from ..obs.tracer import NULL_SPAN, Span

#: Start methods this module knows how to drive, in preference order.
START_METHODS = ("fork", "spawn")

#: How long an attempt waits (total) for another process's in-flight
#: analysis of the same key before it fails with :class:`LeaseWaitTimeout`.
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
    a target that names no app or lineage version before any worker
    starts, building none of them."""
    from ..corpus import app_keys
    from ..corpus.lineage import is_version_label, lineage_version
    from ..synth import expand_targets, is_synth_key, parse_app_key

    targets = expand_targets(list(targets))
    for target in targets:
        if is_version_label(target):
            lineage_version(target)  # raises LookupError on a bad label
            continue
        if is_synth_key(target):
            parse_app_key(target)  # raises KeyError on a malformed key
            continue
        if target not in app_keys() and not Path(target).exists():
            raise LookupError(
                f"{target!r} is neither a corpus app key, a synthesized "
                f"app key, a lineage label (app@vN), a population spec, "
                f"nor an .sapk bundle"
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


def analyze_through_store(
    store,
    digest: str,
    config_key: str,
    analyze,
    *,
    counters: dict,
    owner: str | None = None,
    timeout: float | None = None,
):
    """One analysis attempt through the store: the protocol batch workers,
    daemon jobs and ``repro diff --store`` share.

    Probe the store; on a miss take the result-key lease, or wait for its
    holder's envelope (:class:`LeaseWaitTimeout` once the holder has kept
    the lease :data:`LEASE_WAIT_SECONDS` without storing).  Once the lease
    is won, probe again: the holder may have stored its result and
    released between the probe and the claim.  Only then run ``analyze()``
    under :func:`~repro.service.jobs.call_with_timeout`, ``put`` its
    report and release the lease.

    Returns the fresh report, or ``None`` when the result was already
    stored (the caller reads it back if it needs it).  Whatever
    ``analyze`` or the store raises propagates, lease released; the
    caller retries as :func:`retry_delay` says.  The probes do no
    accounting: the attempt counts one store outcome, a hit when the
    result came from the store and a miss when it was analysed.
    ``counters`` gains ``lease_waits`` when the stored result came from a
    holder this attempt waited for.
    """
    from .jobs import call_with_timeout
    from .store import result_key

    key = result_key(digest, config_key)
    deadline = time.monotonic() + LEASE_WAIT_SECONDS
    waited = False
    while store.lookup(key) is None:
        if store.claim(key, owner=owner):
            try:
                if store.lookup(key) is None:
                    store.record(hit=False)
                    report = call_with_timeout(analyze, timeout)
                    store.put(digest, config_key, report)
                    return report
            finally:
                store.release(key)
            break
        # another process is analysing this key right now: wait for its
        # envelope instead of duplicating the work
        if time.monotonic() >= deadline:
            raise LeaseWaitTimeout(
                f"timed out waiting for in-flight analysis of {key} "
                f"(lease holder: {store.lease_holder(key)})"
            )
        waited = True
        time.sleep(_LEASE_POLL)
    store.record(hit=True)
    if waited:
        counters["lease_waits"] = 1
    return None


def retry_delay(
    exc: BaseException, attempt: int, *, retries: int, backoff: float
) -> float | None:
    """The retry rule batch entries and daemon jobs share: the seconds to
    wait before retrying an attempt (numbered from 1) that raised
    ``exc``, or ``None`` when the failure is final.  A blown deadline
    (:class:`~repro.service.jobs.JobTimeout`) and a lease holder that
    never stored (:class:`LeaseWaitTimeout`) are final, since a retry
    would meet them again; so is a failure once ``retries`` retries are
    spent.  Otherwise the backoff doubles per attempt:
    ``backoff * 2**(attempt - 1)``."""
    from .jobs import JobTimeout

    if attempt > retries or isinstance(exc, (JobTimeout, LeaseWaitTimeout)):
        return None
    return backoff * 2 ** (attempt - 1)


def _process_item(
    store,
    index: int,
    target: str,
    *,
    worker_id: int,
    retries: int,
    backoff: float,
    timeout: float | None,
    span=NULL_SPAN,
) -> ShardRecord:
    """Resolve one batch entry and run it through
    :func:`analyze_through_store`, retrying a failed attempt as
    :func:`retry_delay` says (the backoff sleeps in this worker).  Each
    attempt's ``analyze:<app>`` trace nests under ``span``, the entry's
    ``job:<target>`` span.  The record's ``seconds`` cover the whole
    entry: target resolution, the APK digest and cache key included,
    and a failed resolution too."""
    from ..apk.loader import apk_digest
    from ..core.extractocol import Extractocol
    from .jobs import resolve_target
    from .store import result_key

    record = ShardRecord(index=index, target=target, worker=worker_id)
    started = time.monotonic()
    try:
        apk, config, label = resolve_target(target)
    except Exception as exc:
        record.fail(exc, trace=True)
        record.label = target
        record.seconds = time.monotonic() - started
        return record
    record.label = label
    digest = apk_digest(apk)
    config_key = config.cache_key()
    record.result_key = result_key(digest, config_key)

    def analyze():
        report = Extractocol(config, span=span).analyze(apk)
        record.counters["analyses_run"] = (
            record.counters.get("analyses_run", 0) + 1
        )
        return report

    for attempt in itertools.count(1):
        try:
            report = analyze_through_store(
                store, digest, config_key, analyze,
                counters=record.counters,
                owner=f"shard-{worker_id}", timeout=timeout,
            )
        except Exception as exc:
            record.fail(exc, trace=True)
            record.attempts = attempt
            delay = retry_delay(exc, attempt, retries=retries, backoff=backoff)
            if delay is None:
                break
            record.counters["jobs_retried"] = (
                record.counters.get("jobs_retried", 0) + 1
            )
            time.sleep(delay)
            continue
        record.status = "done"  # an earlier attempt may have failed
        if report is None:
            record.cache_hit = True
        else:
            record.attempts = attempt
            if report.phase_stats is not None:
                record.phase_seconds = {
                    phase: round(seconds, 6)
                    for phase, seconds in report.phase_stats.seconds.items()
                }
        break
    record.seconds = time.monotonic() - started
    return record


class _Worker:
    """One analyzer's state across the entries it runs: a store handle and
    the root its ``job:<target>`` spans join, a live ``worker-<n>`` span
    with telemetry on and :data:`~repro.obs.tracer.NULL_SPAN` without."""

    def __init__(
        self,
        worker_id: int,
        targets: list[str],
        store_root: str,
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
        self.batch_id = batch_id
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.telemetry = None
        self.root_span = NULL_SPAN
        if telemetry_dir is not None:
            from ..obs.fleet import WorkerTelemetry

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
        job_span = self.root_span.child(f"job:{target}")
        job_span.set("index", index)
        job_span.set("app_key", str(target))
        job_span.set("run_id", self.batch_id)
        job_span.set("worker", self.worker_id)
        record = _process_item(
            self.store,
            index,
            target,
            worker_id=self.worker_id,
            retries=self.retries,
            backoff=self.backoff,
            timeout=self.timeout,
            span=job_span,
        )
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

    args = (list(targets), str(store_root), batch_id, retries, backoff,
            timeout, telemetry_dir)
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
    ResultStore(store_root).reap()

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
    "analyze_through_store",
    "expand_batch_targets",
    "retry_delay",
    "run_sharded_batch",
]
