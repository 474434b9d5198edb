"""Per-phase timing/counter profile of one analysis run.

:class:`PhaseStats` is the one timing record of an analysis: embedded in
:class:`~repro.core.report.AnalysisReport`, carried in the service result
store's envelope, and printed by ``repro eval --verbose``.  Every other
view of a phase's time (its trace span, a batch record's
``phase_seconds``, the ledger and ``/metrics`` histograms) is copied from
it.  Its dict form (:meth:`PhaseStats.to_dict`) is envelope metadata,
never part of the report serialisation — timings differ between runs,
and the store's byte-identity contract covers the report payload only.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Canonical phase names, in pipeline order (paper Figure 2 plus the
#: call-graph/async-model preparation that precedes it).
PHASES = ("setup", "slicing", "signatures", "dependencies")


@dataclass
class PhaseStats:
    """Seconds per pipeline phase plus pipeline-wide integer counters."""

    seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    #: slice-reuse outcome of an incremental run — ``{"reused",
    #: "reanalyzed", "dirty_methods"}`` — or ``None`` outside that mode
    incremental: dict[str, int] | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def phase(self, name: str, parent_span):
        """Time one pipeline phase with one clock: yields the
        ``phase:<name>`` child of ``parent_span`` and writes the measured
        seconds to both ``seconds[name]`` and that span.  Untraced,
        ``parent_span`` is :data:`~repro.obs.tracer.NULL_SPAN`, whose
        ``child`` is itself, so no span is allocated."""
        span = parent_span.child(f"phase:{name}")
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.seconds = self.seconds[name] = time.perf_counter() - t0

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """JSON-safe form; keys sorted so the output is canonical.
        ``incremental`` appears only when set, so profiles from other
        modes keep their historical shape byte-for-byte."""
        out = {
            "seconds": {k: self.seconds[k] for k in sorted(self.seconds)},
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }
        if self.incremental is not None:
            out["incremental"] = {
                k: self.incremental[k] for k in sorted(self.incremental)
            }
        return out


def phase_table(stats_by_app: dict[str, "PhaseStats"]) -> str:
    """Many apps' phase timings as one table (``repro eval --verbose``)."""
    header = (
        f"{'app':16s}"
        + "".join(f"{p + ' ms':>16s}" for p in PHASES)
        + f"{'total ms':>12s}"
    )
    lines = [header]
    for app, stats in stats_by_app.items():
        cells = "".join(
            f"{stats.seconds.get(p, 0.0) * 1000:16.2f}" for p in PHASES
        )
        lines.append(f"{app:16s}{cells}{stats.total_seconds * 1000:12.2f}")
    return "\n".join(lines)


__all__ = ["PHASES", "PhaseStats", "phase_table"]
