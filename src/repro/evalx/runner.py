"""Per-app evaluation runner: one place that runs Extractocol, manual and
automatic fuzzing on a corpus app and caches the results for the tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from ..core.extractocol import Extractocol
from ..core.report import AnalysisReport
from ..corpus import app_keys, get_spec
from ..corpus.base import AppSpec
from ..runtime.fuzzing import AutoUiFuzzer, FuzzResult, ManualUiFuzzer


@dataclass
class AppEvaluation:
    spec: AppSpec
    report: AnalysisReport
    manual: FuzzResult
    auto: FuzzResult

    @property
    def key(self) -> str:
        return self.spec.key


@lru_cache(maxsize=None)
def evaluate_app(key: str) -> AppEvaluation:
    """Analyze + fuzz one corpus app; results are cached per app."""
    spec = get_spec(key)
    # Build the APK once and share it across all three stages (analysis is
    # read-only and the runtime keeps its own heap).  The Network cannot be
    # shared: each fuzzer's FuzzResult owns its network's traffic trace.
    apk = spec.build_apk()
    report = Extractocol(spec.analysis_config()).analyze(apk)
    manual = ManualUiFuzzer().fuzz(apk, spec.build_network())
    auto = AutoUiFuzzer().fuzz(apk, spec.build_network())
    return AppEvaluation(spec=spec, report=report, manual=manual, auto=auto)


def clear_cache() -> None:
    evaluate_app.cache_clear()


def render_phase_table(keys: Iterable[str] | None = None) -> str:
    """Per-app phase-timing table (``repro eval --verbose``).

    Reuses the :class:`~repro.obs.phases.PhaseStats` every cached report
    already carries — apps evaluated earlier in the same process cost
    nothing extra."""
    from ..obs.phases import phase_table

    key_list = list(keys) if keys is not None else app_keys()
    stats = {
        key: ev.report.phase_stats
        for key in key_list
        if (ev := evaluate_app(key)).report.phase_stats is not None
    }
    return phase_table(stats)


__all__ = [
    "AppEvaluation",
    "clear_cache",
    "evaluate_app",
    "render_phase_table",
]
