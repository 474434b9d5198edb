"""Fleet telemetry: cross-process trace aggregation, worker heartbeats,
host fingerprints, and live batch progress.

The sharded batch engine (:mod:`repro.service.shard`) runs N analyzer
*processes*; their spans and liveness cannot ride the parent's in-memory
tracer.  This module defines the on-disk telemetry protocol that bridges
the process boundary:

Telemetry directory layout (one per batch run, beside the result store)::

    <store root>/telemetry/<run_id>/
        worker-<n>.trace.jsonl    # the worker's span stream (with timings)
        heartbeat-<n>.json        # atomically-replaced liveness beacon
        fleet.trace.jsonl         # coordinator-merged deterministic trace

**Correlation ids.**  Every worker-emitted ``job:<target>`` span is tagged
with ``run_id`` / ``worker`` / ``shard`` / ``app_key`` / ``index`` attrs,
so any span in any stream can be joined back to its batch entry and run
ledger row.

**Deterministic merge.**  :func:`merge_worker_traces` re-roots every
``job:*`` subtree under one synthetic ``fleet`` root, ordered by batch
entry index with run-specific attrs (which worker ran it, whether it was
stolen, wall seconds) stripped — so the merged trace's span set is a pure
function of the workload: byte-identical across reruns regardless of
scheduling, work stealing, or worker count.  Span ids stay content hashes
of the rewritten paths, exactly as :mod:`repro.obs.export` defines them.
The run-specific facts remain available in the per-worker streams and the
run ledger.

Heartbeats are written with the same atomic temp-file + ``os.replace``
discipline as the result store, so a reader never sees a torn beacon.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
import tempfile
import time
from pathlib import Path

from .export import events_to_span, to_jsonl, validate_jsonl
from .tracer import Span

#: Bump when the heartbeat or merged-trace envelope changes incompatibly.
TELEMETRY_SCHEMA_VERSION = 1

#: Span attributes that vary across reruns of the same workload (work
#: stealing makes worker/shard assignment nondeterministic; lease races
#: decide who takes the cache hit).  Stripped from the merged fleet trace;
#: preserved in the per-worker streams.
RUN_SPECIFIC_ATTRS = frozenset(
    {"run_id", "worker", "shard", "stolen", "cache_hit", "pid"}
)

_SYN_KEY_RE = re.compile(r"^syn-([a-z0-9_]+)-s\d+-\d+$")


# --------------------------------------------------------------- fingerprint
def host_fingerprint() -> dict:
    """The facts that make performance numbers comparable across hosts.

    Stamped into every run-ledger entry (``repro runs show`` prints it),
    so a run's timings are read against the host that produced them:
    single-core CI numbers and a 16-core workstation's are different
    experiments.
    """
    from ..perf.parallel import usable_cpus

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "usable_cpus": usable_cpus(),
    }


def family_of(app_key: str) -> str:
    """The synth family of a target key (``syn-<family>-s7-0041`` →
    ``transports``), or ``corpus`` for hand-written apps and bundles.
    Used as the ``family`` label on per-family latency histograms."""
    match = _SYN_KEY_RE.match(app_key or "")
    return match.group(1) if match else "corpus"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


# ------------------------------------------------------------- directories
def telemetry_root(store_root: str | os.PathLike) -> Path:
    return Path(store_root).expanduser() / "telemetry"


def run_telemetry_dir(
    store_root: str | os.PathLike, run_id: str, *, create: bool = False
) -> Path:
    path = telemetry_root(store_root) / run_id
    if create:
        path.mkdir(parents=True, exist_ok=True)
    return path


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------- worker side
class WorkerTelemetry:
    """One shard worker's telemetry emitter: heartbeat beacon + span
    stream.  Lives inside the worker process; everything it writes is a
    plain file another process can read while the worker runs."""

    def __init__(self, run_dir: str | os.PathLike, worker_id: int,
                 run_id: str) -> None:
        self.run_dir = Path(run_dir)
        self.worker_id = worker_id
        self.run_id = run_id
        self.heartbeat_path = self.run_dir / f"heartbeat-{worker_id}.json"
        self.trace_path = self.run_dir / f"worker-{worker_id}.trace.jsonl"

    def heartbeat(
        self,
        *,
        status: str,
        in_flight: str | None = None,
        processed: int = 0,
    ) -> None:
        """Atomically replace this worker's liveness beacon.  ``status``
        is ``running`` (with the in-flight app key) / ``idle`` /
        ``exited``; ``updated_unix`` doubles as the in-flight item's start
        time, which is how the progress renderer flags stragglers."""
        _atomic_write(
            self.heartbeat_path,
            json.dumps(
                {
                    "schema": TELEMETRY_SCHEMA_VERSION,
                    "run_id": self.run_id,
                    "worker": self.worker_id,
                    "pid": os.getpid(),
                    "status": status,
                    "in_flight": in_flight,
                    "processed": processed,
                    "updated_unix": time.time(),
                },
                sort_keys=True,
            ),
        )

    def write_trace(self, root_span) -> Path:
        """Persist the worker's span tree as JSONL (timings included —
        per-worker streams are run-specific by design; determinism is the
        *merged* trace's contract)."""
        self.trace_path.write_text(to_jsonl(root_span, timings=True))
        return self.trace_path


# ----------------------------------------------------------- heartbeat reads
def read_heartbeats(run_dir: str | os.PathLike) -> list[dict]:
    """All worker heartbeats in a telemetry directory, sorted by worker.
    Torn/corrupt beacons are skipped (the next atomic replace heals them)."""
    out: list[dict] = []
    for path in sorted(Path(run_dir).glob("heartbeat-*.json")):
        try:
            beat = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(beat, dict) and "worker" in beat:
            out.append(beat)
    out.sort(key=lambda b: b.get("worker", 0))
    return out


# ------------------------------------------------------------- trace merging
def fleet_trace_path(run_dir: str | os.PathLike) -> Path:
    return Path(run_dir) / "fleet.trace.jsonl"


def merge_worker_traces(run_dir: str | os.PathLike) -> str:
    """Merge every ``worker-*.trace.jsonl`` stream in ``run_dir`` into one
    deterministic fleet trace (JSONL text, ``validate_jsonl``-clean).

    Each worker stream is rebuilt as a span tree, and its top-level
    ``job:*`` subtrees are re-rooted under a synthetic ``fleet`` root,
    ordered by batch-entry ``index`` (``Span.child`` gives a duplicate
    name its ``#<n>`` suffix).  Run-specific attrs are stripped and the
    tree is written by :func:`~repro.obs.export.to_jsonl` without wall
    seconds, so span ids are hashes of the rewritten paths.  The resulting
    span set is the union of the per-worker job subtrees and does not
    depend on which worker analysed (or stole) which entry.
    """
    jobs: list[Span] = []
    for path in sorted(Path(run_dir).glob("worker-*.trace.jsonl")):
        jobs.extend(events_to_span(validate_jsonl(path.read_text())).children)
    jobs.sort(key=lambda job: (job.attrs.get("index", 0), job.name))

    fleet = Span("fleet")
    fleet.count("jobs", len(jobs))
    for job in jobs:
        top = fleet.child(job.name)
        top.attrs, top.counters = job.attrs, job.counters
        top.children = job.children
        for child in top.children:
            child.parent = top
        for span in top.walk():
            span.attrs = {
                k: v for k, v in span.attrs.items()
                if k not in RUN_SPECIFIC_ATTRS
            }
    return to_jsonl(fleet)


def write_fleet_trace(run_dir: str | os.PathLike) -> Path:
    """Merge the worker streams and persist ``fleet.trace.jsonl``."""
    path = fleet_trace_path(run_dir)
    path.write_text(merge_worker_traces(run_dir))
    return path


# ---------------------------------------------------------------- progress
class BatchProgress:
    """Live progress renderer for ``repro batch --progress``.

    Called once per completed batch entry (the sharded engine's result
    loop); prints throughput, ETA and failures at most every
    ``interval`` seconds, and flags stragglers — workers whose in-flight
    app has been running much longer than the median completed latency —
    from the heartbeat beacons in ``run_dir``.
    """

    def __init__(
        self,
        total: int,
        *,
        stream=None,
        run_dir: str | os.PathLike | None = None,
        interval: float = 0.5,
        straggler_factor: float = 8.0,
    ) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.interval = interval
        self.straggler_factor = straggler_factor
        self.started = time.monotonic()
        self.done = 0
        self.failed = 0
        self.cache_hits = 0
        self.latencies: list[float] = []
        self._last_print = 0.0

    def __call__(self, record, done: int, total: int) -> None:
        """Count one completed :class:`~repro.service.shard.ShardRecord`."""
        self.done = done
        self.total = total
        if record.status != "done":
            self.failed += 1
        if record.cache_hit:
            self.cache_hits += 1
        if record.seconds:
            self.latencies.append(record.seconds)
        now = time.monotonic()
        if done < total and now - self._last_print < self.interval:
            return
        self._last_print = now
        self.stream.write(self.render() + "\n")
        self.stream.flush()

    def render(self) -> str:
        elapsed = max(1e-9, time.monotonic() - self.started)
        rate = self.done / elapsed
        remaining = self.total - self.done
        eta = remaining / rate if rate > 0 else float("inf")
        parts = [
            f"[{self.done}/{self.total}]",
            f"{rate:.1f} apps/s",
            f"eta {eta:.0f}s" if remaining else "done",
        ]
        if self.cache_hits:
            parts.append(f"{self.cache_hits} cached")
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        stragglers = self.stragglers()
        if stragglers:
            parts.append(
                "stragglers: "
                + ", ".join(
                    f"w{s['worker']}:{s['in_flight']} ({s['in_flight_s']:.1f}s)"
                    for s in stragglers
                )
            )
        return " ".join(parts)

    def stragglers(self, *, now: float | None = None) -> list[dict]:
        """Workers whose in-flight item has exceeded ``straggler_factor``
        × the median completed latency (min 1s)."""
        if self.run_dir is None or not self.latencies:
            return []
        ordered = sorted(self.latencies)
        threshold = max(1.0, self.straggler_factor * percentile(ordered, 0.5))
        now = time.time() if now is None else now
        out = []
        for beat in read_heartbeats(self.run_dir):
            if beat.get("status") != "running" or not beat.get("in_flight"):
                continue
            in_flight_s = now - float(beat.get("updated_unix", now))
            if in_flight_s > threshold:
                out.append(
                    {
                        "worker": beat["worker"],
                        "in_flight": beat["in_flight"],
                        "in_flight_s": round(in_flight_s, 3),
                    }
                )
        return out


__all__ = [
    "BatchProgress",
    "RUN_SPECIFIC_ATTRS",
    "TELEMETRY_SCHEMA_VERSION",
    "WorkerTelemetry",
    "family_of",
    "fleet_trace_path",
    "host_fingerprint",
    "merge_worker_traces",
    "percentile",
    "read_heartbeats",
    "run_telemetry_dir",
    "telemetry_root",
    "write_fleet_trace",
]
