#!/usr/bin/env python3
"""Quickstart: analyze an Android app binary and print its protocol behavior.

Extractocol takes only the APK as input and reconstructs every HTTP(S)
transaction the app can perform — request signatures, response formats,
and the dependencies between messages.

Run:  python examples/quickstart.py [app-key]
      (default app: diode, the open-source reddit client of paper Fig. 3)
"""

from __future__ import annotations

import sys

from repro import Extractocol
from repro.corpus import app_keys, get_spec


def main() -> None:
    key = sys.argv[1] if len(sys.argv) > 1 else "diode"
    if key not in app_keys():
        raise SystemExit(f"unknown app {key!r}; try one of {app_keys()}")
    spec = get_spec(key)
    apk = spec.build_apk()
    print(f"Analyzing {spec.name} ({apk.package}) — "
          f"{apk.program.statement_count()} statements, "
          f"{len(apk.entrypoints)} entry points\n")

    # the paper's §5.1 per-app setup (async heuristic, Kayak's scope)
    report = Extractocol(spec.analysis_config()).analyze(apk)

    print(report.summary())
    print("\nreconstructed HTTP transactions:")
    for txn in report.transactions:
        print(f"\n#{txn.txn_id}")
        print("  " + txn.describe().replace("\n", "\n  "))

    if report.unidentified:
        print("\nwildcard-only signatures (intent/multi-async construction):")
        for txn in report.unidentified:
            print(f"  {txn.request.method} {txn.request.uri_regex}")

    if report.dependencies:
        print("\ninter-transaction dependencies:")
        for dep in report.dependencies:
            print(f"  {dep}")


if __name__ == "__main__":
    main()
