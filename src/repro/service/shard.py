"""The batch engine: work-stealing analyzer workers over one shared
result store.

Analyses are pure-Python CPU work, so threads top out at the GIL.
:func:`run_sharded_batch` therefore shards a batch across ``N`` analyzer
*processes*; at one worker it runs that worker's loop in the calling
process instead of forking, feeding the same coordinator handler:

* **Static shards, dynamic stealing.**  Worker ``i`` owns the round-robin
  shard ``targets[i::N]`` as a deque: it pops its own work from the front,
  and once drained walks the other shards *from the back* (the classic
  work-stealing order — stealers and owners collide as late as possible).
  No shared queue process: coordination happens through atomic claim files
  in the store, so a worker that finishes early drains the stragglers'
  tails instead of idling.
* **Two-level claims.**  A batch-local *claim* (``batch-<id>-<index>``)
  makes exactly one worker responsible for a target before any expensive
  resolution happens, and guarantees exactly one result record per batch
  entry.  After resolution, the store-wide *lease* on the result key
  (:meth:`~repro.service.store.ResultStore.claim`) dedups in-flight
  analyses across *independent* processes and daemons sharing the store:
  a worker that loses the lease race waits for the winner's envelope to
  land instead of re-analysing.
* **Result-carried observability.**  A :class:`ShardRecord` is the one
  record of a batch entry: it travels back over its worker's pipe with its
  wall time, attempt count, steal provenance, per-phase seconds (copied
  from the report's :class:`~repro.obs.phases.PhaseStats`) and counters.
  The CLI's totals, the run ledger and the progress line are derived from
  the records; each worker's span stream is written beside them.

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
from multiprocessing.connection import wait
from pathlib import Path
from types import SimpleNamespace

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


@dataclass
class ShardRecord:
    """One batch entry's outcome, as reported by the worker that owned it."""

    index: int
    target: str
    shard: int
    #: which worker actually ran it (!= shard when the item was stolen)
    worker: int
    status: str = "done"  # done | failed
    cache_hit: bool = False
    stolen: bool = False
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
            "shard": self.shard,
            "worker": self.worker,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "stolen": self.stolen,
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


def shard_of(targets: list, shard: int, workers: int) -> list[tuple[int, object]]:
    """Round-robin shard ``shard`` of ``targets`` with original indices."""
    return [(i, t) for i, t in enumerate(targets) if i % workers == shard]


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
    shard: int,
    retries: int,
    backoff: float,
    timeout: float | None,
    span=None,
) -> ShardRecord:
    """Resolve, dedup and (if needed) analyse one claimed batch entry.
    When ``span`` is given the analysis trace nests under it (see
    :class:`~repro.obs.tracer.SpanTracer`)."""
    from ..obs.tracer import SpanTracer
    from .jobs import resolve_target
    from .store import result_key

    tracer = SpanTracer(span) if span is not None and span else None
    record = ShardRecord(
        index=index,
        target=target,
        shard=shard,
        worker=worker_id,
        stolen=(shard != worker_id),
    )
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
            record.status = "failed"
            record.error_type = "LeaseWaitTimeout"
            record.error_message = (
                f"timed out waiting for in-flight analysis of {key} "
                f"(lease holder: {store.lease_holder(key)})"
            )
            record.error = record.error_message
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


def _shard_worker(
    worker_id: int,
    workers: int,
    targets: list[str],
    store_root: str,
    overrides: dict | None,
    batch_id: str,
    retries: int,
    backoff: float,
    timeout: float | None,
    out,
    telemetry_dir: str | None = None,
) -> None:
    """Analyzer worker: drain the owned shard front-to-back, then steal
    other shards back-to-front.  Every item is gated on the batch-local
    claim, so each batch entry is processed (and reported) exactly once
    across all workers.  ``out`` only needs ``send``: a worker process
    gets the write end of its own pipe, the in-process worker the
    coordinator's handler.

    With ``telemetry_dir`` set, the worker emits fleet telemetry: a
    heartbeat beacon around every item and a full span stream
    (``worker-<n>.trace.jsonl``) where each processed entry is a
    ``job:<target>`` span — tagged with run/worker/shard correlation
    ids — under which the whole analysis trace nests.
    """
    from .store import ResultStore

    telemetry = None
    root_span = None
    if telemetry_dir is not None:
        from ..obs.fleet import WorkerTelemetry
        from ..obs.tracer import Span

        telemetry = WorkerTelemetry(telemetry_dir, worker_id, batch_id)
        root_span = Span(f"worker-{worker_id}")
        root_span.set("run_id", batch_id)
        root_span.set("worker", worker_id)

    store = ResultStore(store_root)
    own: deque = deque(shard_of(targets, worker_id, workers))
    steal_order: list[tuple[int, object]] = []
    for victim in range(1, workers):
        other = shard_of(targets, (worker_id + victim) % workers, workers)
        steal_order.extend(reversed(other))
    work = list(own) + steal_order
    done = 0
    try:
        for index, target in work:
            if not store.claim(f"batch-{batch_id}-{index}", owner=f"w{worker_id}"):
                continue  # another worker owns this entry
            job_span = None
            if root_span is not None:
                job_span = root_span.child(f"job:{target}")
                job_span.set("index", index)
                job_span.set("app_key", str(target))
                job_span.set("run_id", batch_id)
                job_span.set("worker", worker_id)
                job_span.set("shard", index % workers)
            if telemetry is not None:
                telemetry.heartbeat(
                    status="running", in_flight=str(target), processed=done
                )
            record = _process_item(
                store,
                index,
                target,
                overrides,
                worker_id=worker_id,
                shard=index % workers,
                retries=retries,
                backoff=backoff,
                timeout=timeout,
                span=job_span,
            )
            if job_span is not None:
                job_span.seconds = record.seconds
                job_span.set("status", record.status)
                job_span.set("stolen", record.stolen)
                job_span.set("cache_hit", record.cache_hit)
                for name, amount in record.counters.items():
                    job_span.count(name, amount)
            done += 1
            if telemetry is not None:
                telemetry.heartbeat(status="idle", processed=done)
            out.send(("record", record.to_dict()))
    except BaseException as exc:  # worker must always announce its exit
        out.send(("crash", {"worker": worker_id, "error": repr(exc)}))
        raise
    finally:
        if telemetry is not None:
            if root_span is not None:
                try:
                    telemetry.write_trace(root_span)
                except OSError:
                    pass  # telemetry must never take the batch down
            telemetry.heartbeat(status="exited", processed=done)
        out.send(("exit", {"worker": worker_id, "processed": done}))


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
    the worker loop runs in this process (no fork, and
    ``REPRO_START_METHOD`` is not read); otherwise each worker is a
    process started with ``start_method`` (default
    :func:`default_start_method`), and a start method that names nothing
    usable raises :class:`ValueError` before any worker starts.

    Fleet telemetry: pass ``run_id`` (also used as the batch claim id) and
    ``telemetry_dir`` to make each worker write heartbeats plus a span
    stream there; after the batch the coordinator merges the streams into
    a deterministic ``fleet.trace.jsonl``.  ``progress`` is called as
    ``progress(record, done, total)`` per completed entry (live, in
    completion order).  ``out_meta``, when given, is filled with the run's
    side facts (run_id, effective worker count, telemetry/fleet-trace
    paths).
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
    crashes: list[dict] = []

    def handle(message: tuple) -> None:
        kind, payload = message
        if kind == "crash":
            crashes.append(payload)
        elif kind == "record":
            record = ShardRecord(**payload)
            records[record.index] = record
            if progress is not None:
                progress(record, len(records), len(targets))

    args = (workers, list(targets), str(store_root), overrides, batch_id,
            retries, backoff, timeout)
    if workers == 1:
        try:
            _shard_worker(0, *args, SimpleNamespace(send=handle),
                          telemetry_dir)
        except Exception:
            # a worker process would die printing this; the crash is
            # announced, so its unreported entries fail below
            traceback.print_exc()
    else:
        ctx = multiprocessing.get_context(method)
        # One pipe per worker, so a worker killed in the middle of a write
        # tears its own stream and blocks no other worker.  Each write end
        # is closed here once its worker holds it, before the next worker
        # forks, so a worker holds the only write end of its pipe and EOF
        # on the pipe means the worker exited.  A SIGKILLed worker never
        # runs the ``finally`` that announces its exit: its pipe ends
        # without an "exit" message, or in a frame torn short.
        procs = []
        pipes = []  # read ends
        for i in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            p = ctx.Process(
                target=_shard_worker,
                args=(i, *args, writer, telemetry_dir),
                daemon=True,
            )
            p.start()
            writer.close()
            procs.append(p)
            pipes.append(reader)
        announced: set[int] = set()
        while pipes:
            for reader in wait(pipes):
                try:
                    message = reader.recv()
                except (EOFError, OSError):  # exited, or died mid-frame
                    reader.close()
                    pipes.remove(reader)
                    continue
                if message[0] == "exit":
                    announced.add(message[1]["worker"])
                else:
                    handle(message)
        # Reap only now: a worker's batch claims stay live while its pid
        # exists, so no other worker re-runs an entry it already reported.
        for i, p in enumerate(procs):
            p.join()
            if i not in announced:
                crashes.append(
                    {"worker": i, "error": f"exit code {p.exitcode}"}
                )

    store = ResultStore(store_root)
    for index in range(len(targets)):
        store.release(f"batch-{batch_id}-{index}")
    store.reap_lease_temps()

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

    out: list[ShardRecord] = []
    for index, target in enumerate(targets):
        record = records.get(index)
        if record is None:  # owning worker crashed before reporting
            crash = crashes[0]["error"] if crashes else "worker exited early"
            record = ShardRecord(
                index=index,
                target=target,
                shard=index % workers,
                worker=-1,
                status="failed",
                label=target,
                error=f"no result from shard worker ({crash})",
            )
        out.append(record)
    return out


__all__ = [
    "LEASE_WAIT_SECONDS",
    "ShardRecord",
    "expand_batch_targets",
    "run_sharded_batch",
    "shard_of",
]
