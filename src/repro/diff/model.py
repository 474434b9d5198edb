"""The diff data model: changes, matched-transaction deltas, verdicts.

Everything here is plain data with a canonical dict form.  ``to_dict`` is
deterministic — every collection is emitted in a sorted, stable order — so
two diffs of byte-identical reports serialise byte-identically, which is
what lets the service cache diffs in the content-addressed result store
and what the CI smoke job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Bump when the ProtocolDiff dict shape changes incompatibly.  Cached
#: diff envelopes with another version are recomputed, never mis-parsed.
DIFF_SCHEMA_VERSION = 1

#: Change severities, most severe first.
SEVERITIES = ("breaking", "compatible", "info")


@dataclass(frozen=True)
class Change:
    """One field-level protocol change on a matched transaction pair (or,
    for dependency/transaction-level kinds, on the diff as a whole).

    ``kind`` is a stable identifier from the change taxonomy (DESIGN.md
    "Protocol diffing"); ``field`` names what changed (``uri``, ``query``,
    ``header:<name>``, ``body``, ``response``, ``method``, ``dependency``,
    ``transaction``); ``old``/``new`` carry the before/after renderings.
    """

    kind: str
    severity: str
    field: str
    old: str | None = None
    new: str | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "field": self.field,
            "old": self.old,
            "new": self.new,
            "detail": self.detail,
        }

    def sort_key(self) -> tuple:
        return (
            SEVERITIES.index(self.severity),
            self.field,
            self.kind,
            self.old or "",
            self.new or "",
        )

    def __str__(self) -> str:
        parts = [f"[{self.severity}] {self.kind} ({self.field})"]
        if self.old is not None or self.new is not None:
            parts.append(f"{self.old!r} -> {self.new!r}")
        if self.detail:
            parts.append(self.detail)
        return ": ".join(parts)


@dataclass(frozen=True)
class TxnSummary:
    """The identity of one transaction, for added/removed listings."""

    txn_id: int
    method: str
    uri_regex: str

    @property
    def label(self) -> str:
        return f"{self.method} {self.uri_regex}"

    def to_dict(self) -> dict:
        return {"id": self.txn_id, "method": self.method,
                "uri_regex": self.uri_regex}


@dataclass
class TxnDelta:
    """A matched old/new transaction pair and its classified changes."""

    old_id: int
    new_id: int
    label: str
    similarity: float
    changes: list[Change] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.changes)

    def to_dict(self) -> dict:
        return {
            "old_id": self.old_id,
            "new_id": self.new_id,
            "label": self.label,
            "similarity": self.similarity,
            "changes": [c.to_dict() for c in sorted(
                self.changes, key=Change.sort_key)],
        }


@dataclass
class ProtocolDiff:
    """The full comparison of two protocol snapshots."""

    old_app: str
    new_app: str
    old_transactions: int = 0
    new_transactions: int = 0
    #: every matched pair (changed or not); serialisation keeps only the
    #: changed ones plus the match count, so a self-diff stays tiny
    matched: list[TxnDelta] = field(default_factory=list)
    added: list[TxnSummary] = field(default_factory=list)
    removed: list[TxnSummary] = field(default_factory=list)
    #: dependency/transaction-level changes (edge added/removed, source
    #: removed, transaction added/removed)
    graph_changes: list[Change] = field(default_factory=list)

    # -- verdict ----------------------------------------------------------
    def all_changes(self) -> list[Change]:
        out = list(self.graph_changes)
        for delta in self.matched:
            out.extend(delta.changes)
        return sorted(out, key=Change.sort_key)

    def breaking_changes(self) -> list[Change]:
        return [c for c in self.all_changes() if c.severity == "breaking"]

    @property
    def breaking(self) -> bool:
        return bool(self.breaking_changes())

    @property
    def is_empty(self) -> bool:
        return (
            not self.added
            and not self.removed
            and not self.graph_changes
            and all(not d.changed for d in self.matched)
        )

    @property
    def verdict(self) -> str:
        if self.is_empty:
            return "identical"
        return "breaking" if self.breaking else "compatible"

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> dict:
        changed = sorted(
            (d for d in self.matched if d.changed),
            key=lambda d: (d.old_id, d.new_id),
        )
        return {
            "schema": DIFF_SCHEMA_VERSION,
            "old": {"app": self.old_app,
                    "transactions": self.old_transactions},
            "new": {"app": self.new_app,
                    "transactions": self.new_transactions},
            "matched": len(self.matched),
            "changed": [d.to_dict() for d in changed],
            "added": [t.to_dict() for t in sorted(
                self.added, key=lambda t: t.txn_id)],
            "removed": [t.to_dict() for t in sorted(
                self.removed, key=lambda t: t.txn_id)],
            "graph_changes": [c.to_dict() for c in sorted(
                self.graph_changes, key=Change.sort_key)],
            "breaking": self.breaking,
            "verdict": self.verdict,
        }

    def summary(self) -> str:
        changed = [d for d in self.matched if d.changed]
        lines = [
            f"protocol diff: {self.old_app} -> {self.new_app}",
            f"transactions: {self.old_transactions} -> "
            f"{self.new_transactions} "
            f"({len(self.matched)} matched, {len(self.added)} added, "
            f"{len(self.removed)} removed, {len(changed)} changed)",
            f"verdict: {self.verdict}",
        ]
        for delta in sorted(changed, key=lambda d: (d.old_id, d.new_id)):
            lines.append(f"~ {delta.label}")
            for change in sorted(delta.changes, key=Change.sort_key):
                lines.append(f"    {change}")
        for txn in sorted(self.added, key=lambda t: t.txn_id):
            lines.append(f"+ {txn.label}")
        for txn in sorted(self.removed, key=lambda t: t.txn_id):
            lines.append(f"- {txn.label}")
        for change in sorted(self.graph_changes, key=Change.sort_key):
            lines.append(f"! {change}")
        return "\n".join(lines)


def render_markdown(diff: ProtocolDiff) -> str:
    """GitHub-flavoured markdown rendering (``repro diff --markdown``)."""
    changed = sorted((d for d in diff.matched if d.changed),
                     key=lambda d: (d.old_id, d.new_id))
    lines = [
        f"# Protocol diff: `{diff.old_app}` → `{diff.new_app}`",
        "",
        f"**Verdict: {diff.verdict}**"
        + (f" — {len(diff.breaking_changes())} breaking change(s)"
           if diff.breaking else ""),
        "",
        f"| | old | new |",
        f"|---|---|---|",
        f"| transactions | {diff.old_transactions} "
        f"| {diff.new_transactions} |",
        f"| matched | {len(diff.matched)} | |",
        f"| added / removed / changed | {len(diff.added)} "
        f"/ {len(diff.removed)} / {len(changed)} | |",
    ]
    if changed:
        lines += ["", "## Changed transactions", ""]
        for delta in changed:
            lines.append(f"### `{delta.label}`")
            lines.append("")
            for change in sorted(delta.changes, key=Change.sort_key):
                lines.append(f"- {change}")
            lines.append("")
    if diff.added:
        lines += ["", "## Added", ""]
        lines += [f"- `{t.label}`"
                  for t in sorted(diff.added, key=lambda t: t.txn_id)]
    if diff.removed:
        lines += ["", "## Removed", ""]
        lines += [f"- `{t.label}`"
                  for t in sorted(diff.removed, key=lambda t: t.txn_id)]
    if diff.graph_changes:
        lines += ["", "## Dependency graph", ""]
        lines += [f"- {c}" for c in sorted(diff.graph_changes,
                                           key=Change.sort_key)]
    return "\n".join(lines).rstrip() + "\n"


__all__ = [
    "Change",
    "DIFF_SCHEMA_VERSION",
    "ProtocolDiff",
    "SEVERITIES",
    "TxnDelta",
    "TxnSummary",
    "render_markdown",
]
