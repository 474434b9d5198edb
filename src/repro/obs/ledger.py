"""The run ledger: an append-only history of every analyze/batch/serve run.

One JSON object per line in ``<store root>/runs/ledger.jsonl``.  Appends
are a single ``O_APPEND`` write of one ``\\n``-terminated line, so
concurrent runs against a shared store interleave whole records, never
torn ones.

**Schema versioning.**  Every record carries ``schema``
(:data:`LEDGER_SCHEMA_VERSION`).  Readers must accept records with the
current schema, may best-effort older ones, and must *skip* — not fail
on — records from the future: the ledger outlives any single code
version, and an old CLI pointed at a store a newer daemon writes to
should degrade gracefully.  Unparseable lines are likewise skipped.

A record captures everything needed to answer "what did this run do and
how fast" without re-running it: the workload (corpus spec / target
label), the execution shape (executor, workers, host fingerprint),
outcome tallies (done / failed / cache hits / analyses run), per-app and
per-phase latency histograms, structured failure details, and pointers
into the run's telemetry directory.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from .fleet import host_fingerprint, percentile
from .metrics import Histogram

#: Bump when the record shape changes incompatibly.
LEDGER_SCHEMA_VERSION = 1


def new_run_id() -> str:
    """A fresh correlation id (shared by the ledger record, the telemetry
    directory name, and every span the run's workers emit)."""
    return uuid.uuid4().hex[:12]


@dataclass
class RunRecord:
    """One ledger entry.  ``kind`` is ``analyze`` / ``batch`` / ``serve``."""

    run_id: str
    kind: str
    label: str
    started_unix: float
    wall_s: float
    host: dict = field(default_factory=host_fingerprint)
    executor: str = ""
    workers: int = 0
    targets: int = 0
    done: int = 0
    failed: int = 0
    cache_hits: int = 0
    analyses_run: int = 0
    apps_per_sec: float = 0.0
    p50_s: float = 0.0
    p99_s: float = 0.0
    app_seconds: dict = field(default_factory=dict)
    phase_seconds: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    #: written empty; kept so the record format stays stable and older
    #: records' warnings still render
    warnings: list = field(default_factory=list)
    config_overrides: dict = field(default_factory=dict)
    telemetry_dir: str | None = None
    fleet_trace: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema": LEDGER_SCHEMA_VERSION,
            "run_id": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "started_unix": self.started_unix,
            "wall_s": self.wall_s,
            "host": self.host,
            "executor": self.executor,
            "workers": self.workers,
            "targets": self.targets,
            "done": self.done,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "analyses_run": self.analyses_run,
            "apps_per_sec": self.apps_per_sec,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "app_seconds": self.app_seconds,
            "phase_seconds": self.phase_seconds,
            "failures": self.failures,
            "warnings": self.warnings,
            "config_overrides": self.config_overrides,
            "telemetry_dir": self.telemetry_dir,
            "fleet_trace": self.fleet_trace,
        }

    @classmethod
    def from_batch(
        cls,
        *,
        run_id: str,
        label: str,
        records: list,
        started_unix: float,
        wall_s: float,
        executor: str = "process",
        workers: int = 0,
        config_overrides: dict | None = None,
        telemetry_dir: str | None = None,
        fleet_trace: str | None = None,
    ) -> "RunRecord":
        """Aggregate a batch's per-entry records (``ShardRecord.to_dict()``
        forms) into one ledger entry, including exact nearest-rank latency
        percentiles and per-phase histogram summaries.  ``analyses_run``
        sums the records' ``counters``, so an entry whose analysis re-ran
        (a failed ``put`` is retried) counts every run."""
        app_hist = Histogram()
        phase_hists: dict[str, Histogram] = {}
        latencies: list[float] = []
        failures: list[dict] = []
        done = failed = cache_hits = analyses_run = 0
        for record in records:
            status = record.get("status")
            if status == "done":
                done += 1
            else:
                failed += 1
                failures.append(
                    {
                        "target": record.get("target"),
                        "error_type": record.get("error_type"),
                        "error_message": record.get("error_message"),
                        "error": record.get("error"),
                        "traceback": record.get("traceback"),
                    }
                )
            if record.get("cache_hit"):
                cache_hits += 1
            analyses_run += (record.get("counters") or {}).get(
                "analyses_run", 0
            )
            seconds = record.get("seconds") or 0.0
            if seconds:
                latencies.append(float(seconds))
                app_hist.observe(float(seconds))
            for phase, phase_s in (record.get("phase_seconds") or {}).items():
                phase_hists.setdefault(phase, Histogram()).observe(
                    float(phase_s)
                )
        latencies.sort()
        return cls(
            run_id=run_id,
            kind="batch",
            label=label,
            started_unix=started_unix,
            wall_s=wall_s,
            executor=executor,
            workers=workers,
            targets=len(records),
            done=done,
            failed=failed,
            cache_hits=cache_hits,
            analyses_run=analyses_run,
            apps_per_sec=(len(records) / wall_s) if wall_s > 0 else 0.0,
            p50_s=percentile(latencies, 0.50),
            p99_s=percentile(latencies, 0.99),
            app_seconds=app_hist.summary(),
            phase_seconds={
                phase: hist.summary()
                for phase, hist in sorted(phase_hists.items())
            },
            failures=failures,
            config_overrides=dict(config_overrides or {}),
            telemetry_dir=telemetry_dir,
            fleet_trace=fleet_trace,
        )


class RunLedger:
    """Reader/appender for a store's ``runs/ledger.jsonl``."""

    def __init__(self, store_root: str | os.PathLike) -> None:
        self.path = Path(store_root).expanduser() / "runs" / "ledger.jsonl"

    def append(self, record: RunRecord | dict) -> str:
        """Append one record atomically (single O_APPEND write); returns
        its run_id."""
        data = record.to_dict() if isinstance(record, RunRecord) else dict(record)
        data.setdefault("schema", LEDGER_SCHEMA_VERSION)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(data, sort_keys=True) + "\n"
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        return data.get("run_id", "")

    def records(self) -> list[dict]:
        """All readable records, oldest first.  Unparseable lines and
        future-schema records are skipped (see module docstring)."""
        if not self.path.exists():
            return []
        out: list[dict] = []
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(data, dict):
                continue
            if int(data.get("schema", 0)) > LEDGER_SCHEMA_VERSION:
                continue
            out.append(data)
        return out

    def tail(self, n: int = 10) -> list[dict]:
        return self.records()[-n:]

    def get(self, run_id: str) -> dict | None:
        """The record whose run_id matches exactly, or — when unambiguous
        — by prefix (latest wins on exact match)."""
        records = self.records()
        exact = [r for r in records if r.get("run_id") == run_id]
        if exact:
            return exact[-1]
        prefixed = [
            r for r in records if str(r.get("run_id", "")).startswith(run_id)
        ]
        if len({r.get("run_id") for r in prefixed}) == 1 and prefixed:
            return prefixed[-1]
        return None


# ------------------------------------------------------------- rendering
def render_runs_table(records: list[dict]) -> str:
    """``repro runs list`` — newest first."""
    header = (
        f"{'RUN':<13} {'KIND':<7} {'WHEN':<16} {'LABEL':<28} "
        f"{'N':>5} {'FAIL':>4} {'HIT':>4} {'WALL':>8} {'P50':>8}"
    )
    lines = [header, "-" * len(header)]
    for record in reversed(records):
        when = time.strftime(
            "%Y-%m-%d %H:%M",
            time.localtime(float(record.get("started_unix", 0.0))),
        )
        label = str(record.get("label", ""))
        if len(label) > 28:
            label = label[:25] + "..."
        lines.append(
            f"{record.get('run_id', '?'):<13} {record.get('kind', '?'):<7} "
            f"{when:<16} {label:<28} {record.get('targets', 0):>5} "
            f"{record.get('failed', 0):>4} {record.get('cache_hits', 0):>4} "
            f"{record.get('wall_s', 0.0):>7.2f}s "
            f"{record.get('p50_s', 0.0):>7.3f}s"
        )
    return "\n".join(lines)


def render_run(record: dict) -> str:
    """``repro runs show`` — one record, with failure explanations."""
    lines = [
        f"run       {record.get('run_id')}  ({record.get('kind')})",
        f"label     {record.get('label')}",
        "when      "
        + time.strftime(
            "%Y-%m-%d %H:%M:%S",
            time.localtime(float(record.get("started_unix", 0.0))),
        ),
        f"wall      {record.get('wall_s', 0.0):.3f}s"
        f"  ({record.get('apps_per_sec', 0.0):.1f} apps/s)",
        f"executor  {record.get('executor')} x{record.get('workers')}",
        f"targets   {record.get('targets')}  done={record.get('done')}"
        f"  failed={record.get('failed')}"
        f"  cache_hits={record.get('cache_hits')}"
        f"  analyses_run={record.get('analyses_run')}",
        f"latency   p50={record.get('p50_s', 0.0):.4f}s"
        f"  p99={record.get('p99_s', 0.0):.4f}s",
    ]
    host = record.get("host") or {}
    if host:
        lines.append(
            f"host      python {host.get('python')}"
            f"  {host.get('platform')}"
            f"  usable_cpus={host.get('usable_cpus')}"
        )
    phases = record.get("phase_seconds") or {}
    if phases:
        lines.append("phases:")
        for phase, summary in phases.items():
            mean = summary.get("mean")
            lines.append(
                f"  {phase:<14} n={summary.get('count', 0):<5}"
                f" mean={0.0 if mean is None else mean:.4f}s"
                f" max={summary.get('max') or 0.0:.4f}s"
            )
    warnings = record.get("warnings") or []
    for warning in warnings:
        lines.append(f"warning   {warning}")
    failures = record.get("failures") or []
    if failures:
        lines.append("failures:")
        for failure in failures:
            kind = failure.get("error_type") or "error"
            message = (
                failure.get("error_message") or failure.get("error") or ""
            )
            lines.append(f"  {failure.get('target')}: {kind}: {message}")
            trace = failure.get("traceback")
            if trace:
                for tline in str(trace).strip().splitlines():
                    lines.append(f"    | {tline}")
    if record.get("telemetry_dir"):
        lines.append(f"telemetry {record['telemetry_dir']}")
    if record.get("fleet_trace"):
        lines.append(f"trace     {record['fleet_trace']}")
    return "\n".join(lines)


__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "RunRecord",
    "new_run_id",
    "render_run",
    "render_runs_table",
]
