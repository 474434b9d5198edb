"""The diff entry points: report dicts in, :class:`ProtocolDiff` out.

A stored report is its canonical dict (:func:`repro.core.report
.report_to_dict` form), and the diff reads that dict as it is:

* :func:`diff_dicts` — pure function over two report dicts.
  Deterministic: same dicts in, byte-identical ``to_dict()`` out.
* :func:`cached_diff` — two stored reports by result key (``GET
  /diff``), their dicts passed straight to :func:`diff_dicts`, the diff
  cached in the store.
* :func:`diff_reports` — two live
  :class:`~repro.core.report.AnalysisReport` objects, serialised first.
* :func:`diff_targets` — CLI-grade resolution: each side may be a corpus
  key, an ``.sapk`` bundle path, a result-store key, or a generated
  lineage version label (``app@v2``, :mod:`repro.corpus.lineage`), and
  resolves to a report dict.  Lineage pairs thread the rename lineage
  through automatically so an obfuscated rebuild diffs clean.

:func:`diff_reports` and :func:`diff_targets` run the diff inside one
``diff:<old>-><new>`` span carrying matched/added/removed/changed/
breaking counters.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ..obs.tracer import NULL_TRACER
from .classify import classify_graph, classify_pair
from .match import match_transactions
from .model import DIFF_SCHEMA_VERSION, ProtocolDiff
from .normal import report_views


def diff_dicts(
    old: dict,
    new: dict,
    *,
    renames=None,
    span=None,
) -> ProtocolDiff:
    """Diff two canonical report dicts.

    ``renames`` is an optional :class:`~repro.apk.rewrite.RenameMap`
    describing how the *old* snapshot's classes were renamed to produce
    the *new* one; consumer names are mapped back before comparison.
    """
    consumer_map = None
    if renames is not None and renames.class_map:
        consumer_map = renames.inverted().class_map
    old_views = report_views(old)
    new_views = report_views(new, consumer_map=consumer_map)
    match = match_transactions(old_views, new_views)
    diff = ProtocolDiff(
        old_app=old.get("app", ""),
        new_app=new.get("app", ""),
        old_transactions=len(old_views),
        new_transactions=len(new_views),
        matched=[classify_pair(o, n, score) for o, n, score in match.pairs],
        added=[_summary(t) for t in match.unmatched_new],
        removed=[_summary(t) for t in match.unmatched_old],
        graph_changes=classify_graph(match),
    )
    if span:
        span.count("matched", len(diff.matched))
        span.count("added", len(diff.added))
        span.count("removed", len(diff.removed))
        span.count("changed", sum(d.changed for d in diff.matched))
        span.count("breaking", len(diff.breaking_changes()))
    return diff


def _summary(view):
    from .model import TxnSummary

    return TxnSummary(view.txn_id, view.method, view.uri_regex)


def diff_reports(
    old_report,
    new_report,
    *,
    renames=None,
    tracer=NULL_TRACER,
) -> ProtocolDiff:
    """Diff two live analysis reports."""
    from ..core.report import report_to_dict

    return _traced_diff(
        report_to_dict(old_report), report_to_dict(new_report),
        renames=renames, tracer=tracer,
    )


def _traced_diff(old: dict, new: dict, *, renames, tracer) -> ProtocolDiff:
    """:func:`diff_dicts` inside a ``diff:<old>-><new>`` span."""
    with tracer.span(f"diff:{old['app']}->{new['app']}") as span:
        return diff_dicts(old, new, renames=renames, span=span)


# ------------------------------------------------------------ store cache
def diff_cache_key(old_key: str, new_key: str) -> str:
    """Content address of a cached diff: a function of the two report
    keys (already content addresses themselves) and the diff schema."""
    digest = hashlib.sha256(
        f"{old_key}\x00{new_key}\x00{DIFF_SCHEMA_VERSION}".encode()
    ).hexdigest()
    return f"diff-{digest[:40]}"


def cached_diff(store, old_key: str, new_key: str) -> tuple[dict, bool] | None:
    """The diff of two stored reports, served from the store when cached.

    Returns ``(diff dict, was_cached)``; ``None`` when either report key
    is absent.  A fresh diff is written back under
    :func:`diff_cache_key`, so every ``(old, new)`` pair is computed once
    per store lifetime.
    """
    cache_key = diff_cache_key(old_key, new_key)
    envelope = store.load(cache_key)
    if (
        envelope is not None
        and envelope.get("diff_schema") == DIFF_SCHEMA_VERSION
        and "diff" in envelope
    ):
        return envelope["diff"], True
    old_env = store.load(old_key)
    new_env = store.load(new_key)
    if (
        old_env is None
        or new_env is None
        or "report" not in old_env
        or "report" not in new_env
    ):
        return None
    diff = diff_dicts(old_env["report"], new_env["report"])
    # no "report"/"schema" keys: list_entries and cache probes skip this
    store.put_envelope(cache_key, {
        "diff_schema": DIFF_SCHEMA_VERSION,
        "key": cache_key,
        "old_key": old_key,
        "new_key": new_key,
        "diff": diff.to_dict(),
    })
    return diff.to_dict(), False


# --------------------------------------------------------- CLI resolution
def resolve_diff_target(target: str, *, store=None):
    """Resolve one ``repro diff`` operand into ``(report dict, renames_
    from_base, label)``: the stored report dict, or the
    :func:`~repro.core.report.report_to_dict` form of a fresh analysis.

    Tried in order: result-store key (when a store is given), generated
    lineage version (``app@vN``), corpus key, ``.sapk`` path.  Lineage
    versions return their rename lineage so the caller can thread rename
    tolerance between two versions of the same family.
    """
    from ..corpus.lineage import build_version, is_version_label

    if store is not None:
        envelope = store.load(target)
        if envelope is not None and "report" in envelope:
            return envelope["report"], None, target

    if is_version_label(target):
        built = build_version(target)
        report = _analyze(
            built.apk,
            built.config,
            store=store,
            renames=built.renames_from_base,
        )
        return report, built.renames_from_base, target

    from ..service.jobs import resolve_target

    try:
        apk, config, label = resolve_target(target)
    except LookupError:
        raise LookupError(
            f"{target!r} is not a stored result key, corpus app, "
            f"lineage version (app@vN) or .sapk bundle"
        ) from None
    report = _analyze(apk, config, store=store)
    return report, None, label


def _analyze(apk, config, *, store=None, renames=None) -> dict:
    """Analyze one diff operand into its report dict.  With a store, a
    warm operand is read once and costs no analysis; a cold one goes
    through the store protocol batch workers and daemon jobs share
    (:func:`~repro.service.shard.analyze_through_store`), so a report
    another process stores meanwhile under its result-key lease is read
    back.  Otherwise the run goes through ``incremental`` mode (the
    previous version's manifest replays unchanged DP slices, mapped
    through ``renames`` for obfuscated rebuilds) and both the report and
    the fresh manifest are written back."""
    from ..core.extractocol import Extractocol
    from ..core.report import report_to_dict

    if store is None:
        return report_to_dict(Extractocol(config).analyze(apk))
    from ..apk.loader import apk_digest
    from ..service.shard import analyze_through_store
    from ..service.store import result_key

    def analyze():
        config.mode = "incremental"
        return Extractocol(config, store=store).analyze(apk, renames=renames)

    digest = apk_digest(apk)
    config_key = config.cache_key()
    key = result_key(digest, config_key)
    envelope = store.lookup(key)
    if envelope is not None:
        store.record(hit=True)
    else:
        report = analyze_through_store(
            store, digest, config_key, analyze, counters={}
        )
        if report is not None:
            return report_to_dict(report)
        envelope = store.lookup(key)
    return envelope["report"]


def diff_targets(
    old: str,
    new: str,
    *,
    store=None,
    tracer=NULL_TRACER,
) -> ProtocolDiff:
    """Resolve and diff two CLI-style targets (see
    :func:`resolve_diff_target`)."""
    old_dict, old_renames, _ = resolve_diff_target(old, store=store)
    new_dict, new_renames, _ = resolve_diff_target(new, store=store)
    return _traced_diff(
        old_dict, new_dict,
        renames=_relative_renames(old_renames, new_renames), tracer=tracer,
    )


def _relative_renames(old_renames, new_renames):
    """The rename map taking the *old* snapshot's namespace to the
    *new* one, given each side's renames from the lineage base (``None``
    = identity)."""
    if new_renames is None and old_renames is None:
        return None
    if old_renames is None:
        return new_renames
    if new_renames is None:
        return old_renames.inverted()
    from ..apk.rewrite import RenameMap

    inv = old_renames.inverted()
    return RenameMap(
        class_map=_compose(inv.class_map, new_renames.class_map),
        method_map=_compose(inv.method_map, new_renames.method_map),
        field_map=_compose(inv.field_map, new_renames.field_map),
    )


def _compose(first: dict, second: dict) -> dict:
    """old-name -> base -> new-name, dropping identity entries."""
    out = {}
    for old_name, base in first.items():
        mapped = second.get(base, base)
        if mapped != old_name:
            out[old_name] = mapped
    for base, new_name in second.items():
        if base not in first.values() and base != new_name:
            out.setdefault(base, new_name)
    return out


__all__ = [
    "cached_diff",
    "diff_cache_key",
    "diff_dicts",
    "diff_reports",
    "diff_targets",
    "resolve_diff_target",
]
