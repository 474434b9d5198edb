"""Golden-report oracle: the safety net for engine refactors.

``golden_reports.json`` pins the sha256 of every canonical report
(``json.dumps(report_to_dict(r), sort_keys=True)``) for

* all 34 corpus apps, each from its ``resolve_target`` config (so Kayak
  keeps its paper-scoped ``com.kayak`` run), with the async heuristic both
  on and off;
* every app of ``synth:all*100@7`` from its ``resolve_target`` config;

plus ``AnalysisConfig().cache_key()`` and each corpus config's
``cache_key()``, so stored results stay cache hits across refactors.

Next to each report digest it pins, for the same run, the sha256 of the
per-DP slices (``dp_to_dict`` of every entry of ``last_slicing.slices``)
and the report's ``phase_stats.counters``: a report sees slices only
through their union and the signatures, so a change that moves a
statement between two demarcation points' slices, or changes the work
the taint engine counts, fails here too.

A refactor that changes any report, slice, counter or cache key fails
here.  After a deliberate output change, regenerate the data file with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")
SYNTH_POPULATION = "synth:all*100@7"


def _sha256(data) -> str:
    blob = json.dumps(data, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _pins(config, apk) -> tuple[str, str, dict]:
    """(report digest, per-DP slice digest, counters) of one analysis."""
    from repro.core.extractocol import Extractocol
    from repro.core.report import report_to_dict
    from repro.incr.manifest import dp_to_dict

    engine = Extractocol(config)
    report = engine.analyze(apk)
    return (
        _sha256(report_to_dict(report)),
        _sha256([dp_to_dict(s) for s in engine.last_slicing.slices]),
        dict(report.phase_stats.counters),
    )


def compute_golden() -> dict:
    """Analyze the oracle's population and return its digest table."""
    from repro.core.config import AnalysisConfig
    from repro.corpus import app_keys
    from repro.service.jobs import resolve_target
    from repro.synth import expand_targets

    out: dict = {
        "default_cache_key": AnalysisConfig().cache_key(),
        "corpus": {},
        "synth": {},
        "synth_slices": {},
        "synth_counters": {},
    }
    for key in app_keys():
        apk, config, _ = resolve_target(key)
        entry = {"cache_key": config.cache_key()}
        for heuristic in (True, False):
            run = replace(config, async_heuristic=heuristic)
            name = "async_on" if heuristic else "async_off"
            (
                entry[name],
                entry[f"{name}_slices"],
                entry[f"{name}_counters"],
            ) = _pins(run, apk)
        out["corpus"][key] = entry
    for key in expand_targets([SYNTH_POPULATION]):
        apk, config, _ = resolve_target(key)
        (
            out["synth"][key],
            out["synth_slices"][key],
            out["synth_counters"][key],
        ) = _pins(config, apk)
    return out


def test_reports_match_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = compute_golden()
    assert got["default_cache_key"] == golden["default_cache_key"]
    assert sorted(got["corpus"]) == sorted(golden["corpus"])
    for table in ("synth", "synth_slices", "synth_counters"):
        assert sorted(got[table]) == sorted(golden[table])
    mismatched = [
        f"{key}:{field}"
        for key, entry in golden["corpus"].items()
        for field, value in entry.items()
        if got["corpus"][key][field] != value
    ] + [
        f"{table}:{key}"
        for table in ("synth", "synth_slices", "synth_counters")
        for key, value in golden[table].items()
        if got[table][key] != value
    ]
    assert not mismatched, (
        f"reports, slices, counters or cache keys drifted: {mismatched}"
    )


def test_golden_covers_the_whole_oracle_population():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden["corpus"]) == 34
    for table in ("synth", "synth_slices", "synth_counters"):
        assert len(golden[table]) == 100
    for entry in golden["corpus"].values():
        assert set(entry) == {
            "cache_key",
            *(
                f"{run}{pin}"
                for run in ("async_on", "async_off")
                for pin in ("", "_slices", "_counters")
            ),
        }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
