#!/usr/bin/env python3
"""Protocol evolution across app releases (paper §6, "other applications").

A protocol description is only useful while it matches the app that ships.
When a new release changes the protocol — a renamed query key, a moved
endpoint, a login token that stops flowing into later requests — every
middlebox rule, replay script and dependency-aware tester built from the
old description silently misfires.

This example walks the generated reddinator lineage (three "releases"
derived from the corpus app) and diffs consecutive versions, showing how
the diff separates compatible drift from the breaking kind: in v3 the
vote endpoint caches the reddit ``modhash`` instead of deriving it from
the login response, so the login→vote dependency edge — the flow paper
Table 3 highlights — disappears from the protocol.

Run:  python examples/version_drift.py
"""

from __future__ import annotations

from repro.core.extractocol import Extractocol
from repro.corpus import build_version, lineage
from repro.diff.engine import diff_reports


def analyze(label: str):
    built = build_version(label)
    return Extractocol(built.config).analyze(built.apk)


def main() -> None:
    versions = lineage("reddinator")
    print("reddinator release lineage:")
    for v in versions:
        print(f"  {v.label}: {v.description}")
    print()

    reports = {v.label: analyze(v.label) for v in versions}

    # v1 -> v2: additive drift.  Old tooling keeps working.
    d12 = diff_reports(reports["reddinator@v1"], reports["reddinator@v2"])
    print(f"v1 -> v2 verdict: {d12.verdict}")
    for change in d12.all_changes():
        print(f"  {change}")
    assert d12.verdict == "compatible" and not d12.breaking
    print()

    # v2 -> v3: the modhash flow is cut.  Any tool that replays vote
    # requests by first harvesting the login response is now broken.
    d23 = diff_reports(reports["reddinator@v2"], reports["reddinator@v3"])
    print(f"v2 -> v3 verdict: {d23.verdict}")
    for change in d23.breaking_changes():
        print(f"  BREAKING  {change}")
    assert d23.breaking
    kinds = [c.kind for c in d23.breaking_changes()]
    assert kinds == ["dependency-removed"], kinds
    (edge,) = [c.old for c in d23.breaking_changes()]
    assert edge == "txn3[$.json] -> txn4.body", edge
    print()
    print("the diff pinpoints the exact removed flow: "
          f"{edge} (login modhash -> vote body)")

    # A self-diff is the identity — the property CI leans on.
    d11 = diff_reports(reports["reddinator@v1"], reports["reddinator@v1"])
    assert d11.is_empty and d11.verdict == "identical"
    print("self-diff sanity: identical (exit code 0 in 'repro diff')")


if __name__ == "__main__":
    main()
