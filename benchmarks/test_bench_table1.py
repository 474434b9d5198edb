"""Regenerate Table 1 (per-app signature counts per discovery method) and
benchmark the full-corpus pipeline runs that produce it.

Run with:  pytest benchmarks/test_bench_table1.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Extractocol
from repro.corpus import app_keys, get_spec
from repro.evalx.paperdata import row_for
from repro.evalx.runner import clear_cache
from repro.evalx.table1 import generate_table1, render_table1
from repro.runtime.fuzzing import AutoUiFuzzer, ManualUiFuzzer


def _run_app(key: str):
    spec = get_spec(key)
    cfg = AnalysisConfig(async_heuristic=(spec.kind == "closed"),
                         scope_prefixes=spec.scope_prefixes)
    report = Extractocol(cfg).analyze(spec.build_apk())
    manual = ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
    auto = AutoUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
    return report, manual, auto


@pytest.mark.parametrize("key", ["diode", "radioreddit", "ted", "kayak",
                                 "linkedin", "pinterest"])
def test_table1_per_app(benchmark, key):
    """Benchmark the three discovery methods on representative apps."""
    report, manual, auto = benchmark(_run_app, key)
    assert report.transactions


def test_table1_full(benchmark):
    """Regenerate the whole table; prints the measured rows next to the
    paper's Extractocol column."""

    def run():
        clear_cache()
        return generate_table1()

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table1(rows))
    print()
    print("paper comparison (Extractocol column, GET/POST):")
    for row in rows:
        paper = row_for(row.key)
        print(
            f"  {row.app[:22]:22s} measured GET={row.get.extractocol:3d} "
            f"POST={row.post.extractocol:3d} | paper GET={paper.get[0]:3d} "
            f"POST={paper.post[0]:3d}"
        )
    assert len(rows) == 34
