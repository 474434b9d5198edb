"""Incremental analysis (``repro.incr``).

:mod:`repro.incr.manifest` / :mod:`repro.incr.reuse` — content-hashed IR
fingerprints rolled into a per-app manifest stored beside the report
envelope; a :class:`~repro.incr.reuse.ReuseIndex` compares manifests
across versions (through the :class:`~repro.apk.rewrite.RenameMap` for
obfuscated re-releases) and replays cached demarcation-point slices whose
backward-reachable method set is unchanged, so warm re-analysis costs
~O(changed methods).

Selected via ``AnalysisConfig(mode="incremental")`` / ``repro analyze
--mode incremental``; the report is byte-identical to a full run.
"""
