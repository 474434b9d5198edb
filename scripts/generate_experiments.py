#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Run:  python scripts/generate_experiments.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.evalx.casestudy import (
    figure1_chain,
    figure3,
    figure8,
    render_table5,
    render_table6,
)
from repro.evalx.figures import figure6, figure7
from repro.evalx.paperdata import (
    FIGURE6,
    FIGURE7,
    PAPER_TOTAL_PAIRS,
    TABLE2,
    row_for,
)
from repro.evalx.table1 import generate_table1, total_pairs
from repro.evalx.table2 import table2
from repro.corpus import app_keys, get_spec


def cell(triple):
    return " / ".join(str(x) for x in triple)


def main() -> None:
    t0 = time.perf_counter()
    out: list[str] = []
    w = out.append

    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w("Generated by `python scripts/generate_experiments.py`.  All measured")
    w("numbers come from the synthetic corpus (see DESIGN.md for the")
    w("substitution rationale): *absolute* agreement is expected only where")
    w("the corpus row was calibrated from the paper's published cell; the")
    w("*shape* — who wins, by what rough factor, where the misses come from —")
    w("is the reproduction target everywhere else.")
    w("")

    # ------------------------------------------------------------ Table 1
    w("## Table 1 — signatures identified per app")
    w("")
    w("Cells are `Extractocol / manual fuzzing / third`, where *third* is")
    w("source-code analysis for open-source apps and automatic (PUMA-like)")
    w("fuzzing for closed-source apps.  `(paper …)` shows the published cell.")
    w("")
    rows = generate_table1()
    w("| App | Kind | GET | POST | PUT | DELETE | Query str | JSON | XML | #Pair |")
    w("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for row in rows:
        paper = row_for(row.key)

        def c(name):
            measured = getattr(row, name)
            expected = getattr(paper, name)
            text = measured.as_text()
            if (measured.extractocol, measured.manual, measured.third) != expected:
                text += f"<br>(paper {cell(expected)})"
            return text

        pair_text = str(row.pairs)
        if row.pairs != paper.pairs:
            pair_text += f"<br>(paper {paper.pairs})"
        w(
            f"| {row.app} | {row.kind} | {c('get')} | {c('post')} | {c('put')} |"
            f" {c('delete')} | {c('query')} | {c('json')} | {c('xml')} |"
            f" {pair_text} |"
        )
    w("")
    measured_pairs = total_pairs(rows)
    w(f"Total reconstructed request/response pairs: **{measured_pairs}** "
      f"(paper: {PAPER_TOTAL_PAIRS}).")
    w("")

    # ------------------------------------------------------------ Figure 6
    w("## Figure 6 — unique signature totals")
    w("")
    w("Values are (response bodies, request bodies/query strings, URIs).")
    w("")
    for kind in ("open", "closed"):
        f6 = figure6(kind)
        w(f"**{kind}-source** (paper: {FIGURE6[kind]})")
        w("")
        w(f"- Extractocol: {f6.extractocol.as_tuple()}")
        w(f"- manual fuzzing: {f6.manual.as_tuple()}")
        w(f"- {f6.third_label}: {f6.third.as_tuple()}")
        w("")
    w("Shape checks that hold, as in the paper: open-source methods agree;")
    w("closed-source Extractocol > manual fuzzing > automatic fuzzing on all")
    w("three series.")
    w("")

    # ------------------------------------------------------------ Figure 7
    w("## Figure 7 — constant-keyword totals")
    w("")
    w("Values are (response keywords, request keywords).")
    w("")
    for kind in ("open", "closed"):
        f7 = figure7(kind)
        w(f"**{kind}-source** (paper: {FIGURE7[kind]})")
        w("")
        w(f"- Extractocol: {f7.extractocol.as_tuple()}")
        w(f"- manual fuzzing (traffic): {f7.manual.as_tuple()}")
        w(f"- {f7.third_label}: {f7.third.as_tuple()}")
        w("")
    f7o = figure7("open")
    missing = f7o.third.request_keywords - f7o.extractocol.request_keywords
    w(f"Open-source request keywords missed with the async heuristic off: "
      f"**{missing}** (paper: 1 — the heap-staged key the heuristic "
      f"recovers; here the radio reddit `dir=` pair plus weather's "
      f"`lat`/`lon`).  Response keywords in traffic exceed the signatures "
      f"because apps do not inspect every key "
      f"({f7o.extractocol.response_keywords}/{f7o.manual.response_keywords} "
      f"≈ {f7o.extractocol.response_keywords / f7o.manual.response_keywords:.0%}; "
      f"paper 372/616 ≈ 60%).")
    w("")

    # ------------------------------------------------------------ Table 2
    w("## Table 2 — matched byte count % (Rk / Rv / Rn)")
    w("")
    w("| corpus | side | measured | paper |")
    w("| --- | --- | --- | --- |")
    for kind in ("open", "closed"):
        row2 = table2(kind)
        for side, measured in (("request", row2.request),
                               ("response", row2.response)):
            m = "/".join(f"{x:.0%}" for x in measured)
            p = "/".join(f"{x:.0%}" for x in TABLE2[(kind, side)])
            w(f"| {kind} | {side} | {m} | {p} |")
    w("")
    w("Shape: request bytes are almost fully explained by identified keys")
    w("plus their value wildcards (tiny Rn); roughly half the response bytes")
    w("are content the app never inspects.")
    w("")

    # ------------------------------------------------------------ case studies
    w("## Case studies")
    w("")
    fig3 = figure3()
    w(f"- **Figure 3 (Diode)** — network-aware slices cover "
      f"{fig3.slice_fraction:.1%} of the program (paper: 6.3% of a much "
      f"larger real APK); the doInBackground URI signature combines "
      f"{fig3.uri_patterns}+ patterns and matches the /search/ form: "
      f"{fig3.search_regex_matches}.")
    w("- **Figure 5** — disjoint-sub-slice pairing recovers the one-to-one "
      "request↔response mapping under a shared demarcation point "
      "(`benchmarks/test_bench_pairing.py`).")
    chain = figure1_chain()
    w(f"- **Figure 1 (TED prefetch)** — dependency chain of "
      f"{len(chain)} transactions ending in the media player; "
      f"`examples/prefetcher.py` serves the ad query/video from cache.")
    fig8 = figure8()
    w(f"- **Figure 8 (radio reddit status.json)** — signature matches "
      f"**{fig8.matched_keywords} of {fig8.total_traffic_keywords}** response "
      f"keywords; unmatched: {', '.join(fig8.unmatched)} (paper: 16 of 18, "
      f"same two keys — the app never reads them).")
    w("- **Table 3 (radio reddit)** — six transactions with the published "
      "dependency graph: login's modhash/cookie feed save|unsave and vote; "
      "the status relay streams into the media player "
      "(`benchmarks/test_bench_casestudies.py::test_table3_radioreddit`).")
    w("- **Table 4 (TED)** — 4 dynamically-derived requests (ad query, ad "
      "video, thumbnail, talk video), DB-mediated dependencies, 2 media-player "
      "streams (`test_table4_ted`).")
    w("")
    w("### Table 5 (measured)")
    w("")
    w("```")
    w(render_table5())
    w("```")
    w("")
    w("### Table 6 (measured)")
    w("")
    w("```")
    w(render_table6())
    w("```")
    w("")
    w("`examples/kayak_replay.py` reproduces §5.3's replay: a client built "
      "from the recovered signatures registers a session, starts and polls a "
      "flight search, and is rejected without the app-specific `User-Agent` "
      "header.")
    w("")

    # ------------------------------------------------------------ deviations
    w("## Known deviations")
    w("")
    w("- **Closed-source fuzzing columns** are measured on the corpus, whose")
    w("  trigger classes were derived from each paper row; cells within ±2 of")
    w("  the paper are expected, exact equality is not (the paper's columns")
    w("  reflect specific PUMA runs on real devices).")
    w("- **Pinterest JSON 236** — the paper counts more response-body")
    w("  signatures than endpoints (per-variant bodies); the corpus encodes")
    w("  one body per endpoint, so the JSON column saturates at 148.")
    w("- **KAYAK GET 39/POST 7 vs Table 5's 33/10** — the paper's Table 1 row")
    w("  and Table 5 inventory do not reconcile; the corpus implements")
    w("  Table 5 exactly (43 APIs, 8 categories), so Table 1's KAYAK cells")
    w("  differ accordingly.  JSON responses: 6, as in §5.3.")
    w("- **TED ad query** returns JSON here (paper Table 4 shows XML); chosen")
    w("  so the TED Table 1 row (JSON 10, XML —) reconciles.")
    w("- **qBittorrent source column** (3/13 vs the paper's 2/2) is treated")
    w("  as equal-to-Extractocol; the paper's lower source-code count is not")
    w("  explained there.")
    w("- **Figure 6 closed-source paper values** are OCR-ambiguous in the")
    w("  source text and marked approximate in `repro/evalx/paperdata.py`.")
    w("- **Analysis time** is seconds here vs minutes/hours in the paper —")
    w("  the corpus programs are orders of magnitude smaller than real APKs;")
    w("  only the relative open-vs-closed shape is reproduced")
    w("  (`benchmarks/test_bench_pipeline.py`).")
    w("")
    w(f"_Generated in {time.perf_counter() - t0:.1f}s on "
      f"{len(app_keys())} corpus apps._")

    target = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    target.write_text("\n".join(out) + "\n")
    print(f"wrote {target} ({len(out)} lines)")


if __name__ == "__main__":
    main()
