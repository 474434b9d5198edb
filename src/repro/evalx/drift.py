"""Protocol-drift evaluation over the generated version lineages.

For every consecutive version pair of every lineage family
(:mod:`repro.corpus.lineage`), run the protocol diff and compare its
verdict — and, for breaking drifts, its breaking-change *kinds* — against
the lineage's ground truth.  The resulting table is the diff subsystem's
analogue of Table 1: does evolution analysis recover the known drift,
nothing more and nothing less?
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.extractocol import Extractocol
from ..corpus.lineage import LineageVersion, lineage_keys, lineages
from ..diff.engine import diff_reports
from ..diff.model import ProtocolDiff


@dataclass
class DriftRow:
    """One consecutive version pair, diffed and judged."""

    family: str
    old_label: str
    new_label: str
    description: str
    diff: ProtocolDiff
    expected_breaking: bool
    expected_kinds: tuple[str, ...]

    @property
    def breaking_kinds(self) -> tuple[str, ...]:
        return tuple(sorted({c.kind for c in self.diff.breaking_changes()}))

    @property
    def correct(self) -> bool:
        if self.diff.breaking != self.expected_breaking:
            return False
        if self.expected_kinds:
            return self.breaking_kinds == tuple(sorted(self.expected_kinds))
        return True


def _analyze(version: LineageVersion):
    built = version.materialize()
    return Extractocol(built.config).analyze(built.apk), built


def drift_rows(corpus: str | None = None) -> list[DriftRow]:
    """Diff every consecutive version pair of every lineage family.

    ``corpus`` optionally names a synthesized population spec
    (``synth:<families>*<scale>[@<seed>]``, e.g. via ``$REPRO_CORPUS``);
    its apps with known-drift lineages are appended to the hand-written
    families."""
    families: list[tuple[str, list[LineageVersion]]] = [
        (family, lineages()[family]) for family in lineage_keys()
    ]
    if corpus:
        from ..synth import parse_population, synth_lineage

        for key in parse_population(corpus).keys():
            versions = synth_lineage(key)
            if len(versions) > 1:
                families.append((key, versions))
    rows: list[DriftRow] = []
    for family, versions in families:
        analyzed = [(_analyze(v), v) for v in versions]
        for ((old_report, old_built), _), ((new_report, new_built), new_v) in zip(
            analyzed, analyzed[1:]
        ):
            from ..diff.engine import _relative_renames

            renames = _relative_renames(
                old_built.renames_from_base, new_built.renames_from_base
            )
            diff = diff_reports(old_report, new_report, renames=renames)
            rows.append(DriftRow(
                family=family,
                old_label=f"{family}@v{new_v.version - 1}",
                new_label=new_v.label,
                description=new_v.description,
                diff=diff,
                expected_breaking=new_v.expect_breaking,
                expected_kinds=new_v.expected_breaking_kinds,
            ))
    return rows


def render_drift_table(corpus: str | None = None) -> str:
    """The drift table: one row per consecutive lineage version pair."""
    rows = drift_rows(corpus)
    header = (
        f"{'pair':26s} {'verdict':11s} {'expect':9s} "
        f"{'+':>3s} {'-':>3s} {'~':>3s} {'ok':3s} breaking kinds"
    )
    lines = [
        "Protocol drift over generated version lineages",
        "(+/-/~ = transactions added / removed / changed)",
        "",
        header,
        "-" * len(header),
    ]
    correct = 0
    for row in rows:
        diff = row.diff
        changed = sum(d.changed for d in diff.matched)
        expect = "breaking" if row.expected_breaking else "clean"
        ok = "yes" if row.correct else "NO"
        correct += row.correct
        kinds = ", ".join(row.breaking_kinds) or "-"
        pair = f"{row.old_label} -> {row.new_label}"
        lines.append(
            f"{pair:26s} {diff.verdict:11s} {expect:9s} "
            f"{len(diff.added):>3d} {len(diff.removed):>3d} {changed:>3d} "
            f"{ok:3s} {kinds}"
        )
    lines.append("-" * len(header))
    lines.append(f"{correct}/{len(rows)} drift verdicts match ground truth")
    return "\n".join(lines)


__all__ = ["DriftRow", "drift_rows", "render_drift_table"]
