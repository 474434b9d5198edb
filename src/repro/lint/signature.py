"""Post-analysis signature lints (``SIG0xx`` rules).

These run *after* the pipeline, over the artefacts it produced — the
:class:`~repro.core.report.AnalysisReport` and (when available) the raw
:class:`~repro.slicing.slicer.SlicingReport` — and flag outputs that are
formally present but useless to a consumer:

* **SIG001** — a transaction whose URI signature is wildcard-only
  (``(.*)``): the request was found but nothing about its endpoint was
  recovered (the paper's "unidentified" bucket).
* **SIG002** — a demarcation point whose request *and* response slices are
  both empty: slicing started there and recovered nothing.
* **SIG003** — demarcation points were found but no transaction was
  recorded at all: the signature interpreter never reached them.

All three are warnings — wildcard URIs legitimately occur in the corpus
(fully dynamic URLs, e.g. TED's media links), so they indicate reduced
fidelity rather than broken analysis.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, make_finding


def _txn_location(txn) -> tuple[str, str, int]:
    """(class, method, index) of the transaction's demarcation site; a
    transaction without one degrades to report level."""
    site = txn.site
    if site is None:
        return "", "", -1
    class_name = site.method_id.strip("<").split(":", 1)[0]
    return class_name, site.method_id, site.index


def signature_report(report, slicing=None) -> list[Diagnostic]:
    """Run the ``SIG0xx`` family over an analysis report (and, when the
    caller has it, the slicing report from the same run)."""
    out: list[Diagnostic] = []
    for txn in report.unidentified:
        class_name, method_id, index = _txn_location(txn)
        out.append(
            make_finding(
                "SIG001",
                f"transaction {txn.txn_id}: URI signature "
                f"{txn.request.method} {txn.request.uri_regex!r} is "
                "wildcard-only",
                class_name=class_name,
                method_id=method_id,
                index=index,
            )
        )
    if slicing is not None:
        for s in slicing.slices:
            if s.request.stmts or s.response.stmts:
                continue
            out.append(
                make_finding(
                    "SIG002",
                    f"demarcation point {s.dp.spec.class_name}."
                    f"{s.dp.spec.method_name} produced an empty slice",
                    class_name=s.dp.site.method_id.strip("<").split(":", 1)[0],
                    method_id=s.dp.site.method_id,
                    index=s.dp.site.index,
                )
            )
    if report.demarcation_points > 0 and not report.transactions and not report.unidentified:
        out.append(
            make_finding(
                "SIG003",
                f"{report.demarcation_points} demarcation point(s) found but "
                "no transactions recorded",
            )
        )
    return out


__all__ = ["signature_report"]
