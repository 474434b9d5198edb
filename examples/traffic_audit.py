#!/usr/bin/env python3
"""Application-aware traffic classification (paper §2's QoS motivation).

"If the network knows that the response message is streamed into a media
player, rather than to a file, it can treat the traffic as such."

This example classifies a captured traffic trace using Extractocol's
signatures: each flow is labeled with the transaction it matches, the data
consumer (media player / UI / ...), and the provenance of dynamic request
fields — information a middlebox cannot get from port numbers or SNI.

Run:  python examples/traffic_audit.py
"""

from __future__ import annotations

from repro import AnalysisConfig, Extractocol
from repro.corpus import get_spec
from repro.runtime.fuzzing import ManualUiFuzzer
from repro.signature.matcher import transaction_matches


def classify(report, trace):
    rows = []
    for captured in trace:
        match = next(
            (
                t
                for t in report.transactions
                if transaction_matches(t, captured.request.method,
                                       captured.request.url,
                                       captured.request.body)
            ),
            None,
        )
        if match is None:
            rows.append((captured, None, "unclassified", ""))
            continue
        consumers = ",".join(sorted(match.response.consumers)) or "app logic"
        origins = ",".join(sorted(match.request.origins)) or "static"
        rows.append((captured, match, consumers, origins))
    return rows


def main() -> None:
    spec = get_spec("radioreddit")
    report = Extractocol(AnalysisConfig(async_heuristic=True)).analyze(
        spec.build_apk()
    )
    fuzz = ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
    print(f"captured {len(fuzz.trace)} flows from {spec.name}\n")

    rows = classify(report, fuzz.trace)
    print(f"{'flow':58s} {'txn':>4s} {'consumer':14s} origins")
    print("-" * 110)
    streaming = 0
    for captured, match, consumers, origins in rows:
        flow = f"{captured.request.method} {captured.request.url}"[:57]
        txn = f"#{match.txn_id}" if match else "-"
        print(f"{flow:58s} {txn:>4s} {consumers:14s} {origins[:40]}")
        if "media_player" in consumers:
            streaming += 1
    assert streaming >= 1
    print(f"\n{streaming} flow(s) feed the media player -> a QoS policy can "
          "prioritise them as latency-sensitive streaming traffic.")


if __name__ == "__main__":
    main()
