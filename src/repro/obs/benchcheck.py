"""Benchmark regression gating — the engine behind ``repro bench check``.

Compares a *candidate* performance measurement against a checked-in
baseline ``BENCH_*.json`` and decides pass/fail with configurable
thresholds, so CI consumes the bench trajectory instead of merely
regenerating it.

Four bench shapes are understood (detected structurally, no filename
convention required):

* ``batch_scale`` — ``{"by_workers": {"1": {apps_per_sec, p50_s, ...}}}``
* ``corpus_scale`` — ``{"by_size": {"100": {apps_per_sec, p50_ms, ...}}}``
* ``incremental`` — ``{"by_lineage": {"app@v2": {cold_s, warm_s, speedup,
  reuse_fraction, ...}}}`` (cold vs manifest-warm re-analysis)
* ``search`` — ``{"by_query": {"host": {p50_ms, p99_ms, qps, ...}}}``
  (fleet-index query latency over a synthesized store; the baked query
  strings travel in ``meta.queries`` so a fresh candidate re-runs
  exactly the baseline's workload)

Candidates come from three sources: another bench JSON file, a run-ledger
entry (converted to a one-row ``batch_scale`` shape), or a fresh sharded
batch run over the baseline's own target list.

**Host fingerprints.**  Performance numbers are only comparable on
comparable hosts.  Both sides' fingerprints (``meta.host``, falling back
to the legacy top-level ``meta`` keys older BENCH files carry) are
compared and every mismatch is reported loudly; mismatched comparisons
still run — the caller decides whether to trust them — but the warnings
make "1-core CI vs 16-core workstation" impossible to miss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .fleet import fingerprint_mismatches, host_fingerprint

#: Default regression threshold: a metric may degrade by up to 25%
#: before the check fails (latency +25%, throughput −25%).
DEFAULT_THRESHOLD = 0.25

#: Metric direction: "higher" is better (throughput, speedup) or
#: "lower" is better (latency).
_BATCH_METRICS = (
    ("apps_per_sec", "higher"),
    ("p50_s", "lower"),
    ("p99_s", "lower"),
)
_CORPUS_METRICS = (
    ("gen_apps_per_sec", "higher"),
    ("apps_per_sec", "higher"),
    ("p50_ms", "lower"),
    ("p99_ms", "lower"),
)
#: reuse_fraction is deterministic (manifest diffing, not timing), so it
#: is the load-bearing gate; the timing pair rides along for trajectory.
_INCR_METRICS = (
    ("reuse_fraction", "higher"),
    ("speedup", "higher"),
    ("warm_s", "lower"),
)
_SEARCH_METRICS = (
    ("qps", "higher"),
    ("p50_ms", "lower"),
    ("p99_ms", "lower"),
)


@dataclass
class MetricCheck:
    """One baseline/candidate metric pair and its verdict."""

    metric: str
    direction: str  # "higher" | "lower" is better
    baseline: float
    candidate: float
    threshold: float
    regressed: bool

    @property
    def ratio(self) -> float:
        return self.candidate / self.baseline if self.baseline else 0.0

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "ratio": round(self.ratio, 4),
            "threshold": self.threshold,
            "regressed": self.regressed,
        }


@dataclass
class CheckResult:
    """Outcome of one baseline-vs-candidate comparison."""

    bench: str
    kind: str
    checks: list = field(default_factory=list)
    fingerprint_warnings: list = field(default_factory=list)

    @property
    def regressions(self) -> list:
        return [c for c in self.checks if c.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "bench": self.bench,
            "kind": self.kind,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
            "regressions": [c.metric for c in self.regressions],
            "fingerprint_warnings": self.fingerprint_warnings,
        }


def bench_kind(data: dict) -> str | None:
    """Classify a bench JSON structurally; None for unknown shapes."""
    if "by_workers" in data:
        return "batch_scale"
    if "by_size" in data:
        return "corpus_scale"
    if "by_lineage" in data:
        return "incremental"
    if "by_query" in data:
        return "search"
    return None


def bench_fingerprint(data: dict) -> dict:
    """The host fingerprint of a bench report — ``meta.host`` when
    present, else reconstructed from the legacy top-level meta keys."""
    meta = data.get("meta") or {}
    host = meta.get("host")
    if isinstance(host, dict):
        return host
    return {
        key: meta[key]
        for key in ("python", "platform", "cpu_count", "usable_cpus")
        if key in meta
    }


def extract_metrics(data: dict) -> dict[str, tuple[float, str]]:
    """Flatten a bench report into ``{metric_path: (value, direction)}``.
    Only numeric metrics with a known better-direction are extracted."""
    kind = bench_kind(data)
    out: dict[str, tuple[float, str]] = {}
    if kind == "batch_scale":
        for workers, row in (data.get("by_workers") or {}).items():
            for metric, direction in _BATCH_METRICS:
                if isinstance(row.get(metric), (int, float)):
                    out[f"by_workers.{workers}.{metric}"] = (
                        float(row[metric]),
                        direction,
                    )
    elif kind == "corpus_scale":
        for size, row in (data.get("by_size") or {}).items():
            for metric, direction in _CORPUS_METRICS:
                if isinstance(row.get(metric), (int, float)):
                    out[f"by_size.{size}.{metric}"] = (
                        float(row[metric]),
                        direction,
                    )
    elif kind == "incremental":
        for label, row in (data.get("by_lineage") or {}).items():
            for metric, direction in _INCR_METRICS:
                if isinstance(row.get(metric), (int, float)):
                    out[f"by_lineage.{label}.{metric}"] = (
                        float(row[metric]),
                        direction,
                    )
    elif kind == "search":
        for name, row in (data.get("by_query") or {}).items():
            for metric, direction in _SEARCH_METRICS:
                if isinstance(row.get(metric), (int, float)):
                    out[f"by_query.{name}.{metric}"] = (
                        float(row[metric]),
                        direction,
                    )
    return out


def compare_benches(
    baseline: dict,
    candidate: dict,
    *,
    bench_name: str = "bench",
    threshold: float = DEFAULT_THRESHOLD,
) -> CheckResult:
    """Compare the metric intersection of two bench reports.

    A "higher is better" metric regresses when the candidate falls below
    ``baseline * (1 - threshold)``; a "lower is better" metric when it
    exceeds ``baseline * (1 + threshold)``.
    """
    result = CheckResult(
        bench=bench_name,
        kind=bench_kind(baseline) or "unknown",
        fingerprint_warnings=fingerprint_mismatches(
            bench_fingerprint(baseline), bench_fingerprint(candidate)
        ),
    )
    base_metrics = extract_metrics(baseline)
    cand_metrics = extract_metrics(candidate)
    for metric in sorted(set(base_metrics) & set(cand_metrics)):
        base_value, direction = base_metrics[metric]
        cand_value, _ = cand_metrics[metric]
        if direction == "higher":
            regressed = cand_value < base_value * (1.0 - threshold)
        else:
            regressed = cand_value > base_value * (1.0 + threshold)
        result.checks.append(
            MetricCheck(
                metric=metric,
                direction=direction,
                baseline=base_value,
                candidate=cand_value,
                threshold=threshold,
                regressed=regressed,
            )
        )
    return result


# ------------------------------------------------------- candidate sources
def candidate_from_run(record: dict) -> dict:
    """A run-ledger entry as a one-row ``batch_scale``-shaped candidate,
    comparable against ``BENCH_batch_scale.json``'s matching worker row."""
    workers = str(record.get("workers") or 1)
    return {
        "meta": {
            "host": record.get("host") or {},
            "source": f"run-ledger:{record.get('run_id')}",
        },
        "by_workers": {
            workers: {
                "wall_s": record.get("wall_s", 0.0),
                "apps_per_sec": record.get("apps_per_sec", 0.0),
                "p50_s": record.get("p50_s", 0.0),
                "p99_s": record.get("p99_s", 0.0),
                "work_steals": record.get("work_steals", 0),
                "analyses_run": record.get("analyses_run", 0),
            }
        },
    }


def fresh_candidate(
    baseline: dict, *, workers: int, store_root=None
) -> dict:
    """Measure a fresh cold sharded batch over the baseline's own target
    list (one worker count) and return it in ``batch_scale`` shape."""
    import tempfile
    import time

    from ..service.shard import run_sharded_batch
    from .fleet import percentile

    targets = list((baseline.get("meta") or {}).get("targets") or [])
    if not targets:
        raise ValueError(
            "baseline meta.targets is empty; cannot run a fresh candidate"
        )
    with tempfile.TemporaryDirectory(prefix="repro-benchcheck-") as tmp:
        root = store_root or tmp
        t0 = time.perf_counter()
        records = run_sharded_batch(root, targets, workers=workers)
        wall = time.perf_counter() - t0
    latencies = sorted(r.seconds for r in records if r.seconds)
    return {
        "meta": {"host": host_fingerprint(), "targets": targets,
                 "source": "fresh"},
        "by_workers": {
            str(workers): {
                "wall_s": round(wall, 4),
                "apps_per_sec": round(len(records) / wall, 3),
                "p50_s": round(percentile(latencies, 0.50), 4),
                "p99_s": round(percentile(latencies, 0.99), 4),
                "work_steals": sum(1 for r in records if r.stolen),
                "analyses_run": sum(
                    1
                    for r in records
                    if r.status == "done" and not r.cache_hit
                ),
            }
        },
    }


def measure_incremental_row(label: str) -> dict:
    """Cold vs manifest-warm analysis of one lineage version label
    (``app@vN``): a full cold run, then ``v(N-1)`` analyzed into a fresh
    store (leaving its manifest) and ``vN`` re-analyzed in incremental
    mode against it.  ``identical`` asserts the byte-identity contract."""
    import tempfile
    import time

    from ..core.extractocol import Extractocol
    from ..core.report import report_to_dict
    from ..corpus.lineage import build_version
    from ..diff.engine import _relative_renames
    from ..service.store import ResultStore

    family, _, v = label.partition("@")
    version = int(v.lstrip("v"))
    built = build_version(label)
    t0 = time.perf_counter()
    cold = Extractocol(built.config).analyze(built.apk)
    cold_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="repro-incr-bench-") as tmp:
        store = ResultStore(tmp)
        prev = build_version(f"{family}@v{version - 1}")
        Extractocol(prev.config, store=store).analyze(prev.apk)
        built.config.mode = "incremental"
        renames = _relative_renames(
            prev.renames_from_base, built.renames_from_base
        )
        engine = Extractocol(built.config, store=store)
        t0 = time.perf_counter()
        warm = engine.analyze(built.apk, renames=renames)
        warm_s = time.perf_counter() - t0

    counters = warm.phase_stats.incremental or {}
    total = counters.get("reused", 0) + counters.get("reanalyzed", 0)
    return {
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 3) if warm_s else 0.0,
        "reused": counters.get("reused", 0),
        "reanalyzed": counters.get("reanalyzed", 0),
        "reuse_fraction": (
            round(counters.get("reused", 0) / total, 4) if total else 0.0
        ),
        "dirty_methods": counters.get("dirty_methods", 0),
        "identical": report_to_dict(cold) == report_to_dict(warm),
    }


def measure_incremental_synth(spec: str) -> dict:
    """One aggregate row over every known-drift lineage of a synthesized
    population (``synth:<families>*<scale>[@<seed>]``)."""
    from ..synth import parse_population, synth_lineage

    rows: list[dict] = []
    for key in parse_population(spec).keys():
        for lv in synth_lineage(key)[1:]:
            rows.append(measure_incremental_row(lv.label))
    if not rows:
        raise ValueError(f"{spec}: no apps with lineage versions")
    cold_s = sum(r["cold_s"] for r in rows)
    warm_s = sum(r["warm_s"] for r in rows)
    reused = sum(r["reused"] for r in rows)
    reanalyzed = sum(r["reanalyzed"] for r in rows)
    total = reused + reanalyzed
    return {
        "pairs": len(rows),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 3) if warm_s else 0.0,
        "reused": reused,
        "reanalyzed": reanalyzed,
        "reuse_fraction": round(reused / total, 4) if total else 0.0,
        "dirty_methods": sum(r["dirty_methods"] for r in rows),
        "identical": all(r["identical"] for r in rows),
    }


def _top_term(index, prefix: str, *, skip=lambda value: False) -> str | None:
    """The busiest term under a namespace prefix — deterministic: highest
    posting count, lexicographically first on ties."""
    best: tuple[int, str] | None = None
    for term, postings in index.postings.items():
        if not term.startswith(prefix):
            continue
        if skip(term[len(prefix):]):
            continue
        cand = (-len(postings), term)
        if best is None or cand < best:
            best = cand
    return best[1] if best is not None else None


def derive_search_queries(index) -> dict[str, str]:
    """One representative query per grammar class, derived
    deterministically from the index contents (busiest term of each
    namespace; the lexicographically first document for ``like:``)."""
    queries: dict[str, str] = {}
    host = _top_term(index, "host:")
    path = _top_term(index, "path:", skip=lambda v: v.startswith("/"))
    field = _top_term(index, "field:")
    text = _top_term(index, "text:")
    if host:
        queries["host"] = host
    if path:
        queries["path"] = path
    if field:
        queries["field"] = field
    if text:
        queries["text"] = text[len("text:"):]
    if host and text:
        queries["multi"] = f"{host} {text[len('text:'):]}"
    for key in sorted(index.docs):
        txns = sorted(int(t) for t in index.docs[key].get("txns", {}))
        if txns:
            queries["like"] = f"like:{key[:16]}/{txns[0]}"
            break
    return queries


def measure_search_bench(
    spec: str,
    *,
    queries: dict[str, str] | None = None,
    workers: int = 0,
    repeats: int = 50,
    store_root=None,
) -> dict:
    """Build a store from a population spec, index it, and measure query
    latency per grammar class; returns the full ``search``-shaped bench.

    The index is loaded once and queried ``repeats`` times per class —
    the service steady state, where ``refresh()`` is a stat probe.
    """
    import tempfile
    import time

    from ..fleetindex.index import FleetIndex, build_index
    from ..fleetindex.query import run_search
    from ..service.shard import run_sharded_batch
    from ..service.store import ResultStore
    from ..synth import expand_targets
    from .fleet import percentile

    targets = expand_targets([spec])
    with tempfile.TemporaryDirectory(prefix="repro-bench-search-") as tmp:
        root = store_root or tmp
        run_sharded_batch(root, targets, workers=workers or 1)
        store = ResultStore(root)
        t0 = time.perf_counter()
        index_stats = build_index(store)
        build_s = time.perf_counter() - t0
        index = FleetIndex(store).refresh()
        if queries is None:
            queries = derive_search_queries(index)

        by_query: dict[str, dict] = {}
        for name in sorted(queries):
            text = queries[name]
            latencies: list[float] = []
            total = 0
            for _ in range(repeats):
                t0 = time.perf_counter()
                result = run_search(index, text)
                latencies.append(time.perf_counter() - t0)
                total = result["total"]
            latencies.sort()
            wall = sum(latencies)
            by_query[name] = {
                "query": text,
                "hits": total,
                "p50_ms": round(percentile(latencies, 0.50) * 1000, 4),
                "p99_ms": round(percentile(latencies, 0.99) * 1000, 4),
                "qps": round(repeats / wall, 2) if wall else 0.0,
            }
    return {
        "meta": {
            "host": host_fingerprint(),
            "spec": spec,
            "queries": queries,
            "repeats": repeats,
            "engine": "repro.fleetindex (loaded index, pending overlay)",
            "timed_region": (
                "run_search only: parse + posting intersection/scoring + "
                "sort + first page"
            ),
        },
        "index": {**index_stats, "build_s": round(build_s, 4)},
        "by_query": by_query,
    }


def fresh_search_candidate(baseline: dict) -> dict:
    """Re-measure the baseline's own store spec and baked query strings
    (``search`` kind's fresh-run source for ``repro bench check``)."""
    meta = baseline.get("meta") or {}
    spec = meta.get("spec")
    if not spec:
        raise ValueError("baseline meta.spec is empty; cannot rebuild store")
    queries = meta.get("queries") or None
    repeats = int(meta.get("repeats") or 50)
    return measure_search_bench(spec, queries=queries, repeats=repeats)


def fresh_incremental_candidate(baseline: dict) -> dict:
    """Re-measure the baseline's own lineage rows (``incremental`` kind's
    fresh-run source for ``repro bench check``)."""
    by_lineage: dict[str, dict] = {}
    for label in baseline.get("by_lineage") or {}:
        if label.startswith("synth:"):
            by_lineage[label] = measure_incremental_synth(label)
        else:
            by_lineage[label] = measure_incremental_row(label)
    if not by_lineage:
        raise ValueError("baseline by_lineage is empty")
    return {
        "meta": {"host": host_fingerprint(), "source": "fresh"},
        "by_lineage": by_lineage,
    }


def load_bench(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or bench_kind(data) is None:
        raise ValueError(f"{path}: not a recognized bench report")
    return data


# ------------------------------------------------------------- rendering
def render_check(result: CheckResult) -> str:
    lines = [f"== {result.bench} ({result.kind}) =="]
    for warning in result.fingerprint_warnings:
        lines.append(f"!! HOST FINGERPRINT MISMATCH: {warning}")
    if result.fingerprint_warnings:
        lines.append(
            "!! numbers below compare across different hosts; "
            "treat regressions/improvements with suspicion"
        )
    for check in result.checks:
        arrow = "worse" if (
            (check.direction == "higher" and check.ratio < 1.0)
            or (check.direction == "lower" and check.ratio > 1.0)
        ) else "better-or-equal"
        status = "REGRESSED" if check.regressed else "ok"
        lines.append(
            f"  {status:<9} {check.metric:<34} "
            f"base={check.baseline:g} cand={check.candidate:g} "
            f"ratio={check.ratio:.3f} ({arrow})"
        )
    tally = (
        f"{len(result.regressions)} regression(s)"
        if result.regressions
        else "no regressions"
    )
    lines.append(f"-- {tally} across {len(result.checks)} metric(s)")
    return "\n".join(lines)


__all__ = [
    "CheckResult",
    "DEFAULT_THRESHOLD",
    "MetricCheck",
    "bench_fingerprint",
    "bench_kind",
    "candidate_from_run",
    "compare_benches",
    "derive_search_queries",
    "extract_metrics",
    "fresh_candidate",
    "fresh_incremental_candidate",
    "fresh_search_candidate",
    "measure_search_bench",
    "load_bench",
    "measure_incremental_row",
    "measure_incremental_synth",
    "render_check",
]
