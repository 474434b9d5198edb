"""The whole shipped corpus is lint-clean: ``repro lint`` must find zero
error-severity findings on every app (the CI ``lint-corpus`` gate), and
lint output must be byte-deterministic across runs."""

from __future__ import annotations

import pytest

from repro.corpus import app_keys, build_app
from repro.lint.diagnostics import findings_to_jsonl
from repro.lint.runner import lint_apk


@pytest.mark.parametrize("key", app_keys())
def test_corpus_app_has_no_lint_errors(key):
    lint = lint_apk(build_app(key))
    assert lint.errors == [], (
        f"{key} has lint errors:\n" + "\n".join(str(f) for f in lint.errors)
    )


def test_corpus_is_currently_finding_free():
    """Stronger than the gate: today the corpus carries zero findings of
    *any* severity — a new warning/info means either a corpus regression
    or an overeager rule, and both deserve a look."""
    noisy = {}
    for key in app_keys():
        lint = lint_apk(build_app(key))
        if lint.findings:
            noisy[key] = [str(f) for f in lint.findings]
    assert noisy == {}


def test_lint_is_deterministic_across_runs():
    first = lint_apk(build_app("radioreddit"))
    second = lint_apk(build_app("radioreddit"))
    assert first.findings == second.findings
    assert findings_to_jsonl(first.findings) == findings_to_jsonl(second.findings)
