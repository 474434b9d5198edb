"""Diff subsystem performance guards.

Two budgets:

1. The whole-corpus self-diff (analyze every app once, diff each report
   with itself) stays inside a hard wall-clock ceiling — the CI
   ``diff-smoke`` job runs exactly this sweep on every push, so it must
   never become the long pole.
2. The diff itself is cheap relative to analysis: once reports exist,
   re-diffing the whole corpus is pure dict crunching and must stay in
   interactive territory.  This pins the diff's own cost so a regression
   in matching (an accidental O(n²·m) score loop) is caught apart from
   analyzer drift.
"""

from __future__ import annotations

import time

from repro.core.extractocol import Extractocol
from repro.core.report import report_to_dict
from repro.corpus import app_keys
from repro.diff.engine import diff_dicts
from repro.service import resolve_target

#: Whole sweep (34 analyses + 34 self-diffs).  Empirically a few seconds;
#: the ceiling absorbs cold caches and slow shared runners while still
#: catching a structural blow-up.
SWEEP_BUDGET_SECONDS = 120.0

#: Diff-only pass over all pre-analyzed reports.  Empirically tens of
#: milliseconds corpus-wide.
DIFF_ONLY_BUDGET_SECONDS = 5.0


def test_whole_corpus_self_diff_within_budget(benchmark):
    keys = app_keys()

    def run():
        t0 = time.perf_counter()
        dicts = []
        for key in keys:
            apk, config, _ = resolve_target(key)
            dicts.append(report_to_dict(Extractocol(config).analyze(apk)))
        analyze_seconds = time.perf_counter() - t0

        t1 = time.perf_counter()
        verdicts = [diff_dicts(d, d).verdict for d in dicts]
        diff_seconds = time.perf_counter() - t1
        return analyze_seconds, diff_seconds, verdicts

    analyze_seconds, diff_seconds, verdicts = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    total = analyze_seconds + diff_seconds
    print(f"\n  {len(verdicts)} apps: analyze {analyze_seconds:.2f} s, "
          f"self-diff {diff_seconds * 1000:.1f} ms")
    assert all(v == "identical" for v in verdicts)
    assert total <= SWEEP_BUDGET_SECONDS, (
        f"corpus self-diff sweep took {total:.1f} s "
        f"(budget {SWEEP_BUDGET_SECONDS:.0f} s)"
    )
    assert diff_seconds <= DIFF_ONLY_BUDGET_SECONDS, (
        f"diffing alone took {diff_seconds:.2f} s "
        f"(budget {DIFF_ONLY_BUDGET_SECONDS:.0f} s): matching should be "
        "dict crunching, not re-analysis"
    )
