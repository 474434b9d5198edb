"""Fleet telemetry: cross-process trace aggregation, host fingerprints,
and live batch progress.

The sharded batch engine (:mod:`repro.service.shard`) runs N analyzer
*processes*; their spans cannot ride the parent's in-memory span tree.  This
module defines the on-disk telemetry protocol that bridges the process
boundary:

Telemetry directory layout (one per batch run, beside the result store)::

    <store root>/telemetry/<run_id>/
        worker-<n>.trace.jsonl    # the worker's span stream (with timings)
        fleet.trace.jsonl         # coordinator-merged deterministic trace
                                  # (no timings: flame graphs read the
                                  # worker streams)

**Correlation ids.**  Every worker-emitted ``job:<target>`` span is tagged
with ``run_id`` / ``worker`` / ``app_key`` / ``index`` attrs, so any span
in any stream can be joined back to its batch entry and run ledger row.

**Deterministic merge.**  :func:`merge_worker_traces` re-roots every
``job:*`` subtree under one synthetic ``fleet`` root, ordered by batch
entry index with run-specific attrs (which worker ran it, wall seconds)
stripped — so the merged trace's span set is a pure function of the
workload: byte-identical across reruns regardless of scheduling or worker
count.  Span ids stay content hashes of the rewritten paths, exactly as
:mod:`repro.obs.export` defines them.  The run-specific facts remain
available in the per-worker streams and the run ledger.
"""

from __future__ import annotations

import os
import platform
import re
import sys
import time
from pathlib import Path

from .export import events_to_span, to_jsonl, validate_jsonl
from .tracer import Span

#: Span attributes that vary across reruns of the same workload (which
#: worker takes an entry depends on timing; lease races decide who takes
#: the cache hit; ``shard`` and ``stolen`` appear in streams written before
#: the batch engine became a single dispatcher).  Stripped from the merged
#: fleet trace; preserved in the per-worker streams.
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


# ---------------------------------------------------------------- worker side
class WorkerTelemetry:
    """One shard worker's span stream.  Lives inside the worker process;
    the coordinator reads the stream once the worker has exited."""

    def __init__(self, run_dir: str | os.PathLike, worker_id: int,
                 run_id: str) -> None:
        self.run_dir = Path(run_dir)
        self.worker_id = worker_id
        self.run_id = run_id
        self.trace_path = self.run_dir / f"worker-{worker_id}.trace.jsonl"

    def write_trace(self, root_span) -> Path:
        """Persist the worker's span tree as JSONL (timings included —
        per-worker streams are run-specific by design; determinism is the
        *merged* trace's contract)."""
        self.trace_path.write_text(to_jsonl(root_span, timings=True))
        return self.trace_path


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
    depend on which worker analysed which entry.
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

    Called once per completed batch entry by the batch coordinator; prints
    throughput, ETA and failures at most every ``interval`` seconds, and
    flags stragglers — workers whose in-flight entry has been running much
    longer than the median completed latency — from the coordinator's own
    map of which entry each worker holds and since when.
    """

    def __init__(
        self,
        total: int,
        *,
        stream=None,
        interval: float = 0.5,
        straggler_factor: float = 8.0,
    ) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.straggler_factor = straggler_factor
        self.started = time.monotonic()
        self.done = 0
        self.failed = 0
        self.cache_hits = 0
        self.latencies: list[float] = []
        #: worker -> (target, monotonic start) of the entry it holds
        self.in_flight: dict[int, tuple[str, float]] = {}
        self._last_print = 0.0

    def __call__(self, record, done: int, total: int,
                 in_flight: dict | None = None) -> None:
        """Count one completed :class:`~repro.service.shard.ShardRecord`;
        ``in_flight`` is the coordinator's map of the entries still held."""
        self.done = done
        self.total = total
        self.in_flight = in_flight or {}
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
        """Workers whose in-flight entry has exceeded ``straggler_factor``
        × the median completed latency (min 1s)."""
        if not self.latencies:
            return []
        ordered = sorted(self.latencies)
        threshold = max(1.0, self.straggler_factor * percentile(ordered, 0.5))
        now = time.monotonic() if now is None else now
        out = []
        for worker, (target, since) in sorted(self.in_flight.items()):
            in_flight_s = now - since
            if in_flight_s > threshold:
                out.append(
                    {
                        "worker": worker,
                        "in_flight": target,
                        "in_flight_s": round(in_flight_s, 3),
                    }
                )
        return out


__all__ = [
    "BatchProgress",
    "RUN_SPECIFIC_ATTRS",
    "WorkerTelemetry",
    "family_of",
    "fleet_trace_path",
    "host_fingerprint",
    "merge_worker_traces",
    "percentile",
    "run_telemetry_dir",
    "telemetry_root",
    "write_fleet_trace",
]
