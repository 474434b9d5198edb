"""Lint orchestration: run the pass families, gate, baseline.

``lint_program``/``lint_apk`` compose the three static families
(typechecker → dataflow → soundness) into one deterministic finding list;
``signature_report`` findings are appended by callers that ran the full
pipeline.  ``Baseline`` implements the suppression workflow: a checked-in
JSON file of finding fingerprints that are known debt — ``repro lint``
exits non-zero only on findings *not* in the baseline.

Gate levels (``AnalysisConfig.lint_level``):

========  ==========================================================
off       lint never runs (the default)
record    findings are computed and carried on the report, never fatal
error     error-severity findings abort the analysis (LintGateError)
strict    warnings are fatal too
========  ==========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..apk.model import Apk
from ..ir.program import Program
from .dataflow import dataflow_program
from .diagnostics import (
    Diagnostic,
    count_by_severity,
    Severity,
    sort_findings,
)
from .signature import signature_report
from .soundness import soundness_program
from .typecheck import typecheck_program

GATE_LEVELS = ("off", "record", "error", "strict")


class LintGateError(Exception):
    """Raised when gated lint findings block an analysis."""

    def __init__(self, app: str, findings: list[Diagnostic]) -> None:
        self.app = app
        self.findings = findings
        listing = "\n".join(str(f) for f in findings[:20])
        more = f"\n... and {len(findings) - 20} more" if len(findings) > 20 else ""
        super().__init__(
            f"lint gate failed for {app} ({len(findings)} finding(s)):\n"
            f"{listing}{more}"
        )


@dataclass
class LintReport:
    """All findings for one app, in canonical order."""

    app: str
    findings: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [f for f in self.findings if f.severity == Severity.WARNING]

    def counts(self) -> dict[str, int]:
        return count_by_severity(self.findings)

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }


def lint_program(
    program: Program,
    entrypoint_ids: list[str] | None = None,
    *,
    registry=None,
    model=None,
) -> list[Diagnostic]:
    """Run the static families (IR → DF → SEM) over a program."""
    findings, cfg_unsafe = typecheck_program(program)
    findings.extend(dataflow_program(program, cfg_unsafe))
    findings.extend(
        soundness_program(
            program, entrypoint_ids, registry=registry, model=model
        )
    )
    return sort_findings(findings)


def lint_apk(
    apk: Apk,
    *,
    registry=None,
    model=None,
    report=None,
    slicing=None,
) -> LintReport:
    """Lint an APK; adds the post-analysis ``SIG0xx`` findings when the
    caller supplies the analysis artefacts."""
    findings = lint_program(
        apk.program,
        [ep.method_id for ep in apk.entrypoints],
        registry=registry,
        model=model,
    )
    if report is not None:
        findings = sort_findings(findings + signature_report(report, slicing))
    return LintReport(app=apk.name, findings=findings)


def gate(report: LintReport, level: str) -> None:
    """Enforce a lint level; raises :class:`LintGateError` when blocked."""
    if level not in GATE_LEVELS:
        raise ValueError(f"unknown lint level {level!r} (choose from {GATE_LEVELS})")
    if level in ("off", "record"):
        return
    blocking = list(report.errors)
    if level == "strict":
        blocking += report.warnings
    if blocking:
        raise LintGateError(report.app, sort_findings(blocking))


# ---------------------------------------------------------------------------
# Baseline suppression.


@dataclass
class Baseline:
    """Known-debt fingerprints; findings in the baseline never fail a run."""

    fingerprints: frozenset[str] = frozenset()

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("version") != 1:
            raise ValueError(f"unsupported baseline version: {data.get('version')!r}")
        return cls(fingerprints=frozenset(data.get("fingerprints", ())))

    @classmethod
    def from_findings(cls, findings: list[Diagnostic]) -> "Baseline":
        return cls(fingerprints=frozenset(f.fingerprint() for f in findings))

    def save(self, path: str | Path) -> None:
        payload = {"version": 1, "fingerprints": sorted(self.fingerprints)}
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def new_findings(self, findings: list[Diagnostic]) -> list[Diagnostic]:
        return [f for f in findings if f.fingerprint() not in self.fingerprints]


__all__ = [
    "Baseline",
    "GATE_LEVELS",
    "LintGateError",
    "LintReport",
    "gate",
    "lint_apk",
    "lint_program",
]
