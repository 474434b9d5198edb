"""Protocol-evolution analysis: semantic signature diffing across versions.

Apps silently change their HTTP(S) protocols with every release; the
middleboxes, traffic monitors and testing tools built from an Extractocol
report go stale just as silently (paper §1, §6).  This package compares
two analysis reports — two snapshots of the same app's protocol — and
produces a deterministic, serializable :class:`~repro.diff.model
.ProtocolDiff`:

* **transaction matching** (:mod:`repro.diff.match`) — stable pairing of
  request/response signatures across versions by URI/method/body-shape
  similarity, tolerant of renamed classes via ``apk.rewrite.RenameMap``
  lineages,
* **change classification** (:mod:`repro.diff.classify`) — added/removed/
  changed URI segments, query keys, headers, JSON/XML body keys and
  inter-transaction dependency edges, each labelled with a severity,
* **breaking-change verdict** — a removed dependency source (the reddit
  ``modhash`` flow) is breaking; an added optional query key is not.

The diff reads reports in their canonical dict form
(:func:`repro.core.report.report_to_dict`), the form the result store
keeps.  Entry points: :func:`~repro.diff.engine.diff_dicts` for report
dicts, :func:`~repro.diff.engine.diff_reports` for live reports
in-process, ``repro diff <old> <new>`` on the CLI (exit 1 on breaking
changes, for CI), ``GET /diff/<key1>/<key2>`` on the analysis service
(the two stored report dicts, diffed on every request), and
:func:`repro.evalx.drift.render_drift_table` over the generated version
lineages in :mod:`repro.corpus.lineage`.
"""
