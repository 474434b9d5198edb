"""Lint overhead guards.

1. The default ``lint_level="off"`` runs no lint code in
   ``Extractocol.analyze``: a default-config analysis of every corpus app
   never calls the lint pass, its gate or the signature checks.  This is
   checked by call, not by time, so host noise cannot pass or fail it.
2. Linting the whole shipped corpus stays inside a hard wall-clock budget
   — the CI ``lint-corpus`` job runs it on every push, so it must remain
   cheap enough to never be the long pole.
"""

from __future__ import annotations

import time

from repro import AnalysisConfig, Extractocol
from repro.corpus import app_keys, build_app
from repro.lint import lint_apk, runner, signature

#: Whole-corpus lint wall-clock ceiling (seconds).  Empirically ~1.5 s for
#: all 34 apps including corpus construction; 30 s absorbs cold caches and
#: slow shared runners while still catching an accidental quadratic pass.
CORPUS_BUDGET_SECONDS = 30.0


#: every lint entry point ``Extractocol.analyze`` calls when lint is on
LINT_CALLS = (
    (runner, "lint_apk"), (runner, "gate"), (signature, "signature_report"),
)


def test_lint_off_never_calls_the_lint_pass(monkeypatch):
    called = []
    for module, name in LINT_CALLS:
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    assert AnalysisConfig().lint_level == "off"
    for key in app_keys():
        Extractocol(AnalysisConfig()).analyze(build_app(key))
    assert called == []
    # the spied names are the ones an analysis with lint on calls
    Extractocol(AnalysisConfig(lint_level="record")).analyze(build_app("diode"))
    assert sorted(called) == sorted(name for _, name in LINT_CALLS)


def test_whole_corpus_lint_within_budget(benchmark):
    keys = app_keys()

    def run():
        t0 = time.perf_counter()
        total_findings = 0
        for key in keys:
            total_findings += len(lint_apk(build_app(key)).findings)
        return time.perf_counter() - t0, total_findings

    elapsed, total_findings = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n  linted {len(keys)} apps in {elapsed:.2f} s "
          f"({total_findings} findings)")
    assert elapsed <= CORPUS_BUDGET_SECONDS, (
        f"whole-corpus lint took {elapsed:.1f} s "
        f"(budget {CORPUS_BUDGET_SECONDS:.0f} s)"
    )
