"""The diagnostics framework behind ``repro lint``.

Every lint pass reports :class:`Diagnostic` instances carrying a **stable
rule id** (``IR0xx`` typechecker, ``DF0xx`` CFG dataflow, ``SEM0xx``
pipeline soundness, ``SIG0xx`` post-analysis signature lints), a severity,
a location (class / method / statement index) and a human message.

The contract that makes findings machine-consumable:

* **deterministic ordering** — :func:`sort_findings` orders by
  ``(rule, class, method, index, message)``; two lint runs over the same
  program emit byte-identical output,
* **plain data once serialised** — :meth:`Diagnostic.to_dict` is the
  form a report's ``lint`` key and every JSONL finding event carry, and
  readers consume it as a dict,
* **schema-checked** — :func:`validate_findings_jsonl` mirrors
  :func:`repro.obs.export.validate_jsonl`: a meta line followed by one
  finding event per line, rejected loudly on any shape violation.

This module is dependency-free (dataclasses + json only) so the report
serialiser and the service layer can import it without pulling in the
analysis passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

#: Bump when the finding event shape changes incompatibly.
LINT_SCHEMA_VERSION = 1


class Severity(str, Enum):
    """Finding severity; ``ERROR`` gates CI and the analysis pipeline."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.ERROR: 2, Severity.WARNING: 1, Severity.INFO: 0}


@dataclass(frozen=True)
class RuleSpec:
    """One registered lint rule: id, family, default severity, summary."""

    rule: str
    severity: Severity
    summary: str

    @property
    def family(self) -> str:
        return self.rule.rstrip("0123456789")


#: The rule registry.  Ids are append-only and never renumbered — baselines
#: and dashboards key on them.
RULES: dict[str, RuleSpec] = {
    spec.rule: spec
    for spec in (
        # -- IR: structural well-formedness + the hierarchy-aware typechecker
        RuleSpec("IR001", Severity.ERROR, "method body is empty"),
        RuleSpec("IR002", Severity.ERROR, "branch to undefined label"),
        RuleSpec("IR003", Severity.ERROR, "label points past end of body"),
        RuleSpec("IR004", Severity.ERROR,
                 "identity statement after ordinary statements"),
        RuleSpec("IR005", Severity.ERROR,
                 "identity rhs must be @this or @parameter"),
        RuleSpec("IR006", Severity.ERROR, "use of undeclared local"),
        RuleSpec("IR007", Severity.ERROR, "control falls off the end of the body"),
        RuleSpec("IR008", Severity.ERROR, "superclass cycle"),
        RuleSpec("IR010", Severity.ERROR,
                 "assignment source type incompatible with target type"),
        RuleSpec("IR011", Severity.ERROR,
                 "cast between unrelated program classes"),
        RuleSpec("IR012", Severity.ERROR,
                 "invoke argument count disagrees with signature arity"),
        RuleSpec("IR013", Severity.ERROR,
                 "invoke argument type incompatible with parameter type"),
        RuleSpec("IR014", Severity.ERROR,
                 "returned value type incompatible with declared return type"),
        RuleSpec("IR015", Severity.WARNING,
                 "bare return in non-void method"),
        RuleSpec("IR016", Severity.ERROR,
                 "field store type incompatible with declared field type"),
        RuleSpec("IR017", Severity.WARNING,
                 "call-site return type disagrees with resolved app target"),
        # -- DF: intra-procedural CFG dataflow
        RuleSpec("DF001", Severity.ERROR,
                 "local may be used before assignment on some path"),
        RuleSpec("DF002", Severity.WARNING, "unreachable statements"),
        RuleSpec("DF003", Severity.INFO,
                 "dead store: assigned value is never read"),
        # -- SEM: whole-pipeline soundness
        RuleSpec("SEM001", Severity.ERROR,
                 "network-relevant library call has no semantic model or "
                 "demarcation point"),
        RuleSpec("SEM002", Severity.INFO,
                 "library call has neither an app body nor a semantic model "
                 "(taint treats it as a no-op)"),
        RuleSpec("SEM003", Severity.WARNING,
                 "demarcation point unreachable from any entry point"),
        RuleSpec("SEM004", Severity.WARNING,
                 "listener-style demarcation point has no resolvable callback"),
        RuleSpec("SEM005", Severity.ERROR,
                 "entry point references a method the program does not define"),
        # SEM006 is retired with targeted mode; ids are never reused.
        # -- SIG: post-analysis signature lints
        RuleSpec("SIG001", Severity.WARNING,
                 "transaction URI signature is wildcard-only"),
        RuleSpec("SIG002", Severity.WARNING,
                 "demarcation point produced an empty slice"),
        RuleSpec("SIG003", Severity.WARNING,
                 "demarcation points found but no transactions recorded"),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, anchored to a program location.

    ``class_name`` / ``method_id`` / ``index`` degrade gracefully: a
    program-level finding carries an empty method and index ``-1``, exactly
    like :class:`repro.ir.validate.ValidationError`.
    """

    rule: str
    severity: Severity
    class_name: str
    method_id: str
    index: int
    message: str

    @property
    def location(self) -> str:
        if self.method_id:
            return f"{self.method_id}#{self.index}"
        return self.class_name or "<program>"

    def __str__(self) -> str:
        return f"{self.rule} {self.severity.value} {self.location}: {self.message}"

    # ------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "class": self.class_name,
            "method": self.method_id,
            "index": self.index,
            "message": self.message,
        }

    def fingerprint(self) -> str:
        """Stable identity for baseline suppression: location + rule.

        The message is deliberately excluded so rewording a diagnostic does
        not invalidate existing baselines; the statement index is included
        because two findings of one rule at different statements are
        distinct debts.
        """
        return "|".join(
            (self.rule, self.class_name, self.method_id, str(self.index))
        )


def make_finding(
    rule: str,
    message: str,
    *,
    class_name: str = "",
    method_id: str = "",
    index: int = -1,
    severity: Severity | None = None,
) -> Diagnostic:
    """Construct a finding for a registered rule (severity defaults to the
    rule's registered severity)."""
    spec = RULES[rule]
    return Diagnostic(
        rule=rule,
        severity=severity or spec.severity,
        class_name=class_name,
        method_id=method_id,
        index=index,
        message=message,
    )


def sort_findings(findings: list[Diagnostic]) -> list[Diagnostic]:
    """The canonical deterministic order: (rule, class, method, index)."""
    return sorted(
        findings,
        key=lambda d: (d.rule, d.class_name, d.method_id, d.index, d.message),
    )


def count_by_severity(findings: list[Diagnostic]) -> dict[str, int]:
    counts = {s.value: 0 for s in Severity}
    for finding in findings:
        counts[finding.severity.value] += 1
    return counts


# ---------------------------------------------------------------------------
# JSONL export + schema checking (mirrors repro.obs.export.validate_jsonl).


def findings_to_jsonl(findings: list[Diagnostic]) -> str:
    """Findings as JSONL: a meta line, then one finding event per line in
    canonical order — byte-deterministic for a given finding set."""
    lines = [
        json.dumps(
            {
                "type": "meta",
                "schema": LINT_SCHEMA_VERSION,
                "findings": len(findings),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    ]
    for finding in sort_findings(findings):
        event = dict(finding.to_dict(), type="finding")
        lines.append(json.dumps(event, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def validate_findings_jsonl(text: str) -> list[dict]:
    """Parse and structurally validate a findings JSONL document; returns
    the finding events.  Raises ``ValueError`` on any schema violation."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty findings document")
    meta = json.loads(lines[0])
    if meta.get("type") != "meta" or meta.get("schema") != LINT_SCHEMA_VERSION:
        raise ValueError(f"bad meta line: {lines[0]!r}")
    events: list[dict] = []
    for line in lines[1:]:
        event = json.loads(line)
        for key in ("type", "rule", "severity", "class", "method", "index",
                    "message"):
            if key not in event:
                raise ValueError(f"finding event missing {key!r}: {line!r}")
        if event["type"] != "finding":
            raise ValueError(f"unexpected event type {event['type']!r}")
        if event["rule"] not in RULES:
            raise ValueError(f"unknown rule id {event['rule']!r}")
        if event["severity"] not in {s.value for s in Severity}:
            raise ValueError(f"unknown severity {event['severity']!r}")
        if not isinstance(event["index"], int):
            raise ValueError(f"non-integer index in {line!r}")
        events.append(event)
    if meta.get("findings") != len(events):
        raise ValueError(
            f"meta declares {meta.get('findings')} findings, got {len(events)}"
        )
    return events


__all__ = [
    "Diagnostic",
    "LINT_SCHEMA_VERSION",
    "RULES",
    "RuleSpec",
    "Severity",
    "count_by_severity",
    "findings_to_jsonl",
    "make_finding",
    "sort_findings",
    "validate_findings_jsonl",
]
