"""Score a synthesized population against its generated ground truth.

The synthetic corpus's analogue of Table 1: for every app of a
``synth:<families>*<scale>[@<seed>]`` population, run the full evaluation
(static analysis + manual + automatic fuzzing) and compare each discovery
method's yield against the app's :class:`~repro.corpus.base.GroundTruth`;
for apps whose grid point carries a lineage mutation, additionally diff
v1 -> v2 and judge the verdict against the mutation's known drift class.
One row per family, exact-match column per method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..synth import parse_app_key, parse_population, synth_lineage
from .runner import evaluate_app


@dataclass
class SynthAppScore:
    """One synthesized app, each discovery method judged against truth."""

    key: str
    family: str
    static_expected: int
    static_found: int
    unidentified_expected: int
    unidentified_found: int
    manual_expected: int
    manual_found: int
    auto_expected: int
    auto_found: int
    drift_expected: str | None = None  # "breaking" | "clean" | None (no v2)
    drift_verdict: str | None = None

    @property
    def static_ok(self) -> bool:
        return (
            self.static_found == self.static_expected
            and self.unidentified_found == self.unidentified_expected
        )

    @property
    def manual_ok(self) -> bool:
        return self.manual_found == self.manual_expected

    @property
    def auto_ok(self) -> bool:
        return self.auto_found == self.auto_expected

    @property
    def drift_ok(self) -> bool | None:
        if self.drift_expected is None:
            return None
        got = "clean" if self.drift_verdict in ("identical", "compatible") \
            else "breaking"
        return got == self.drift_expected


@dataclass
class SynthFamilyScore:
    family: str
    apps: list[SynthAppScore] = field(default_factory=list)

    def _count(self, pred) -> int:
        return sum(1 for a in self.apps if pred(a))

    @property
    def static_ok(self) -> int:
        return self._count(lambda a: a.static_ok)

    @property
    def manual_ok(self) -> int:
        return self._count(lambda a: a.manual_ok)

    @property
    def auto_ok(self) -> int:
        return self._count(lambda a: a.auto_ok)

    @property
    def drift_pairs(self) -> int:
        return self._count(lambda a: a.drift_expected is not None)

    @property
    def drift_ok(self) -> int:
        return self._count(lambda a: a.drift_ok is True)

    @property
    def endpoints(self) -> int:
        return sum(a.static_expected + a.unidentified_expected
                   for a in self.apps)


def score_app(key: str, *, diff_lineage: bool = True) -> SynthAppScore:
    """Evaluate one synthesized app against its ground truth."""
    ev = evaluate_app(key)
    truth = ev.spec.truth
    family, _, _ = parse_app_key(key)
    score = SynthAppScore(
        key=key,
        family=family,
        static_expected=truth.count(visible_to="static"),
        static_found=len(ev.report.transactions),
        unidentified_expected=sum(
            1 for t in truth.endpoints if not t.static_visible
        ),
        unidentified_found=len(ev.report.unidentified),
        manual_expected=truth.count(visible_to="manual"),
        manual_found=len(ev.manual.trace),
        auto_expected=truth.count(visible_to="auto"),
        auto_found=len(ev.auto.trace),
    )
    if diff_lineage:
        versions = synth_lineage(key)
        if len(versions) > 1:
            from ..diff.engine import diff_targets

            v2 = versions[-1]
            score.drift_expected = (
                "breaking" if v2.expect_breaking else "clean"
            )
            diff = diff_targets(f"{key}@v1", f"{key}@v{v2.version}")
            score.drift_verdict = diff.verdict
    return score


def score_population(
    spec: str, *, diff_lineage: bool = True
) -> list[SynthFamilyScore]:
    """Score every app of a population spec, grouped per family."""
    pop = parse_population(spec)
    by_family: dict[str, SynthFamilyScore] = {}
    for key in pop.keys():
        app = score_app(key, diff_lineage=diff_lineage)
        by_family.setdefault(
            app.family, SynthFamilyScore(family=app.family)
        ).apps.append(app)
    return list(by_family.values())


def render_synth_table(
    spec: str, *, diff_lineage: bool = True
) -> str:
    """One row per family: exact-match counts per discovery method."""
    scores = score_population(spec, diff_lineage=diff_lineage)
    header = (
        f"{'family':12s} {'apps':>5s} {'endpoints':>9s} {'static':>9s} "
        f"{'manual':>9s} {'auto':>9s} {'drift':>9s}"
    )
    lines = [
        f"Synthesized-corpus evaluation: {spec}",
        "(each cell: apps whose discovered set exactly matches ground truth)",
        "",
        header,
        "-" * len(header),
    ]
    tot_apps = tot_eps = 0
    tot = {"static": 0, "manual": 0, "auto": 0, "drift": 0, "pairs": 0}
    for fam in scores:
        n = len(fam.apps)
        tot_apps += n
        tot_eps += fam.endpoints
        tot["static"] += fam.static_ok
        tot["manual"] += fam.manual_ok
        tot["auto"] += fam.auto_ok
        tot["drift"] += fam.drift_ok
        tot["pairs"] += fam.drift_pairs
        drift = (
            f"{fam.drift_ok}/{fam.drift_pairs}" if fam.drift_pairs else "-"
        )
        static_c = f"{fam.static_ok}/{n}"
        manual_c = f"{fam.manual_ok}/{n}"
        auto_c = f"{fam.auto_ok}/{n}"
        lines.append(
            f"{fam.family:12s} {n:>5d} {fam.endpoints:>9d} "
            f"{static_c:>9s} {manual_c:>9s} {auto_c:>9s} {drift:>9s}"
        )
    lines.append("-" * len(header))
    drift_total = f"{tot['drift']}/{tot['pairs']}" if tot["pairs"] else "-"
    static_t = f"{tot['static']}/{tot_apps}"
    manual_t = f"{tot['manual']}/{tot_apps}"
    auto_t = f"{tot['auto']}/{tot_apps}"
    lines.append(
        f"{'total':12s} {tot_apps:>5d} {tot_eps:>9d} "
        f"{static_t:>9s} {manual_t:>9s} {auto_t:>9s} {drift_total:>9s}"
    )
    return "\n".join(lines)


__all__ = [
    "SynthAppScore",
    "SynthFamilyScore",
    "render_synth_table",
    "score_app",
    "score_population",
]
