"""Golden-report oracle: the safety net for engine refactors.

``golden_reports.json`` pins the sha256 of every canonical report
(``json.dumps(report_to_dict(r), sort_keys=True)``) for

* all 34 corpus apps, each from its ``resolve_target`` config (so Kayak
  keeps its paper-scoped ``com.kayak`` run), with the async heuristic both
  on and off;
* every app of ``synth:all*100@7`` from its ``resolve_target`` config;

plus ``AnalysisConfig().cache_key()`` and each corpus config's
``cache_key()``, so stored results stay cache hits across refactors.

A refactor that changes any report, or any cache key, fails here.  After a
deliberate output change, regenerate the data file with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")
SYNTH_POPULATION = "synth:all*100@7"


def _digest(report) -> str:
    from repro.core.report import report_to_dict

    blob = json.dumps(report_to_dict(report), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compute_golden() -> dict:
    """Analyze the oracle's population and return its digest table."""
    from repro.core.config import AnalysisConfig
    from repro.core.extractocol import Extractocol
    from repro.corpus import app_keys
    from repro.service.jobs import resolve_target
    from repro.synth import expand_targets

    out: dict = {
        "default_cache_key": AnalysisConfig().cache_key(),
        "corpus": {},
        "synth": {},
    }
    for key in app_keys():
        apk, config, _ = resolve_target(key)
        entry = {"cache_key": config.cache_key()}
        for heuristic in (True, False):
            run = replace(config, async_heuristic=heuristic)
            report = Extractocol(run).analyze(apk)
            entry["async_on" if heuristic else "async_off"] = _digest(report)
        out["corpus"][key] = entry
    for key in expand_targets([SYNTH_POPULATION]):
        apk, config, _ = resolve_target(key)
        out["synth"][key] = _digest(Extractocol(config).analyze(apk))
    return out


def test_reports_match_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = compute_golden()
    assert got["default_cache_key"] == golden["default_cache_key"]
    assert sorted(got["corpus"]) == sorted(golden["corpus"])
    assert sorted(got["synth"]) == sorted(golden["synth"])
    mismatched = [
        f"{key}:{field}"
        for key, entry in golden["corpus"].items()
        for field, value in entry.items()
        if got["corpus"][key][field] != value
    ] + [
        key
        for key, value in golden["synth"].items()
        if got["synth"][key] != value
    ]
    assert not mismatched, f"reports or cache keys drifted: {mismatched}"


def test_golden_covers_the_whole_oracle_population():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden["corpus"]) == 34
    assert len(golden["synth"]) == 100
    for entry in golden["corpus"].values():
        assert set(entry) == {"cache_key", "async_on", "async_off"}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
