#!/usr/bin/env python
"""Batch-scaling benchmark: the batch engine at 1/2/4/8 workers (one
worker runs in-process, more are worker processes), persisted as
``BENCH_batch_scale.json``.

For each worker count the harness runs one *cold* batch (fresh store) over
the target list through :func:`repro.service.shard.run_sharded_batch` and
records:

* **apps/sec** — targets divided by batch wall time (the fleet-throughput
  number the sharded engine exists to scale),
* **p50/p99 latency** — per-target wall seconds as measured inside the
  worker that analysed it (resolution + analysis + store write),
* **work steals** — how many targets were executed outside their home
  shard (the stealing path exercising under real skew).

Every run's stored reports are asserted byte-identical to the 1-worker
run's — scaling never changes results.

Honesty notes: the APK corpus is generated in-process, so workers rebuild
their targets from specs (that cost is inside the per-target latency, as
it is in production ``repro batch``).  ``meta.usable_cpus`` records the
cgroup-aware CPU budget of the generating host; scaling beyond it measures
scheduling overhead, not parallelism.

Usage::

    PYTHONPATH=src python scripts/bench_batch.py
    PYTHONPATH=src python scripts/bench_batch.py --quick --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.fleet import host_fingerprint  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.perf.parallel import usable_cpus  # noqa: E402
from repro.service.shard import run_sharded_batch  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402

QUICK_APPS = ["diode", "ted", "tzm", "wallabag"]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def bench_workers(
    targets: list[str], workers: int, repeats: int, start_method: str | None
) -> tuple[dict, dict[str, dict]]:
    """Best-of-``repeats`` cold batch at ``workers``; returns the result
    row plus the stored report payloads (for cross-run identity checks)."""
    best: dict | None = None
    reports: dict[str, dict] = {}
    for _ in range(repeats):
        root = Path(tempfile.mkdtemp(prefix=f"repro-bench-w{workers}-"))
        try:
            metrics = MetricsRegistry()
            t0 = time.perf_counter()
            records = run_sharded_batch(
                root,
                targets,
                workers=workers,
                start_method=start_method,
                metrics=metrics,
            )
            wall = time.perf_counter() - t0
            failed = [r.target for r in records if r.status != "done"]
            if failed:
                raise SystemExit(f"workers={workers}: failed {failed}")
            latencies = sorted(r.seconds for r in records)
            counters = metrics.to_dict()["counters"]
            row = {
                "wall_s": round(wall, 4),
                "apps_per_sec": round(len(targets) / wall, 3),
                "p50_s": round(percentile(latencies, 0.50), 4),
                "p99_s": round(percentile(latencies, 0.99), 4),
                "work_steals": counters.get("work_steals", 0),
                "analyses_run": counters.get("analyses_run", 0),
            }
            if best is None or row["wall_s"] < best["wall_s"]:
                best = row
                store = ResultStore(root)
                reports = {
                    key: store.load(key)["report"] for key in store.entries()
                }
        finally:
            shutil.rmtree(root, ignore_errors=True)
    assert best is not None
    return best, reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", nargs="*", default=None,
                        help="corpus apps to batch (default: whole corpus)")
    parser.add_argument("--workers", default="1,2,4,8",
                        help="comma-separated worker counts (default 1,2,4,8)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="cold batches per worker count; best kept")
    parser.add_argument("--start-method", default=None,
                        choices=["fork", "spawn"],
                        help="force a multiprocessing start method")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke mode: {QUICK_APPS}, 1 repeat")
    parser.add_argument("--min-scaling", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless best apps/sec >= X * "
                             "1-worker apps/sec (CI regression gate)")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_batch_scale.json "
                             "in repo root)")
    args = parser.parse_args(argv)

    if args.apps:
        targets = args.apps
    elif args.quick:
        targets = QUICK_APPS
    else:
        from repro.corpus import app_keys

        targets = app_keys()
    repeats = 1 if args.quick and args.repeats == 3 else args.repeats
    worker_counts = [int(w) for w in str(args.workers).split(",")]
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_batch_scale.json"
    )

    rows: dict[str, dict] = {}
    baseline_reports: dict[str, dict] | None = None
    for workers in worker_counts:
        row, reports = bench_workers(
            targets, workers, repeats, args.start_method
        )
        if baseline_reports is None:
            baseline_reports = reports
        elif reports != baseline_reports:
            raise SystemExit(
                f"workers={workers}: stored reports differ from the "
                f"{worker_counts[0]}-worker run"
            )
        rows[str(workers)] = row
        print(f"workers={workers}: {row['apps_per_sec']:.2f} apps/s "
              f"wall={row['wall_s']:.2f}s p50={row['p50_s'] * 1000:.1f}ms "
              f"p99={row['p99_s'] * 1000:.1f}ms steals={row['work_steals']}")

    base = rows[str(worker_counts[0])]["apps_per_sec"]
    best = max(r["apps_per_sec"] for r in rows.values())
    report = {
        "meta": {
            "generated_unix": int(time.time()),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
            "host": host_fingerprint(),
            "targets": list(targets),
            "repeats": repeats,
            "start_method": args.start_method or "default",
            "engine": "repro.service.shard.run_sharded_batch — work-"
                      "stealing analyzer workers over one shared store "
                      "(in-process at 1 worker, processes above)",
            "timed_region": "whole cold batch (fresh store per run; "
                            "workers resolve + analyze + store)",
        },
        "by_workers": rows,
        "aggregate": {
            "baseline_apps_per_sec": base,
            "best_apps_per_sec": best,
            "scaling": round(best / base, 3) if base else 0.0,
            "identical_reports_across_worker_counts": True,
        },
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"scaling (best/1-worker)={report['aggregate']['scaling']:.2f} "
          f"-> {out}")
    if args.min_scaling is not None and base and best / base < args.min_scaling:
        print(
            f"FAIL: scaling {best / base:.3f} < required {args.min_scaling:g}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
