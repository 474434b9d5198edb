"""Operational metrics — the unified registry behind the service layer.

A deliberately small, dependency-free metrics layer: counters (monotonic),
gauges (instantaneous levels such as queue depth), and histograms
(latency distributions with fixed log-scale buckets).  Exports both as a
plain dict (``GET /metrics`` JSON) and in Prometheus text exposition
format (:func:`render_prometheus`, ``GET /metrics?format=prometheus``).

Thread-safety contract: every metric guards *all* of its state behind one
instance lock — :meth:`Histogram.observe` and :meth:`Histogram.summary`
in particular take the same lock, so a summary taken mid-storm is always
internally consistent (``sum(buckets) == count``, ``min <= max``).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_right

#: Histogram bucket upper bounds, in seconds (log-ish scale spanning the
#: sub-millisecond synthetic corpus up to multi-minute real-APK runs).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0
)


class Counter:
    """A monotonically increasing counter."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """An instantaneous level (queue depth, running jobs)."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value: int) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram of observations (seconds).

    One lock covers every mutation *and* every read-out
    (:meth:`observe`, :meth:`summary`, :meth:`snapshot`, :attr:`count`),
    so concurrent observers never produce a torn summary.
    """

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._bounds = tuple(sorted(buckets))
        self._counts = [0] * (len(self._bounds) + 1)  # +1 for +Inf
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._counts[bisect_right(self._bounds, value)] += 1
            self._count += 1
            self._total += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    def summary(self) -> dict:
        with self._lock:
            buckets = {
                f"le_{bound:g}": count
                for bound, count in zip(self._bounds, self._counts)
            }
            buckets["le_inf"] = self._counts[-1]
            return {
                "count": self._count,
                "sum": self._total,
                "min": self._min,
                "max": self._max,
                "mean": (self._total / self._count) if self._count else None,
                "buckets": buckets,
            }

    def snapshot(self) -> tuple[tuple[float, ...], list[int], int, float]:
        """(bounds, per-bucket counts incl. +Inf, count, sum) — one
        consistent read for the Prometheus renderer."""
        with self._lock:
            return self._bounds, list(self._counts), self._count, self._total

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


#: A metric series key: ``(name, (("label", "value"), ...))``.  Unlabeled
#: metrics use an empty label tuple, so plain ``counter("x")`` lookups are
#: unchanged.
SeriesKey = tuple


def _series_key(name: str, labels: dict | None) -> SeriesKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format: backslash,
    double quote and newline must be escaped inside the quotes."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: tuple, extra: str = "") -> str:
    """``{a="x",b="y"}`` for a sorted label tuple (empty string when there
    are no labels and no extra pair)."""
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _display_name(key: SeriesKey) -> str:
    """The JSON-dict display form of a series: bare name when unlabeled,
    ``name{a="x"}`` otherwise."""
    name, labels = key
    return name + _render_labels(labels)


class MetricsRegistry:
    """Named metrics, created on first use, exported as one JSON dict.

    Each component that reports metrics owns an instance (the daemon, a
    ``repro batch`` run); there is no process-wide registry.

    Every metric accepts optional ``labels`` — a flat str→str dict that
    distinguishes series within one metric family (``histogram(
    "phase_seconds", labels={"phase": "slicing"})``).  Unlabeled calls are
    unchanged, and labeled families render as proper multi-series metrics
    in the Prometheus exposition.
    """

    def __init__(self) -> None:
        self._counters: dict[SeriesKey, Counter] = {}
        self._gauges: dict[SeriesKey, Gauge] = {}
        self._histograms: dict[SeriesKey, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        with self._lock:
            return self._counters.setdefault(
                _series_key(name, labels), Counter()
            )

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(_series_key(name, labels), Gauge())

    def histogram(self, name: str, labels: dict | None = None) -> Histogram:
        with self._lock:
            return self._histograms.setdefault(
                _series_key(name, labels), Histogram()
            )

    def _snapshot(self) -> tuple[dict, dict, dict]:
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                dict(self._histograms),
            )

    def to_dict(self) -> dict:
        counters, gauges, histograms = self._snapshot()
        return {
            "counters": {
                _display_name(k): c.value for k, c in sorted(counters.items())
            },
            "gauges": {
                _display_name(k): g.value for k, g in sorted(gauges.items())
            },
            "histograms": {
                _display_name(k): h.summary()
                for k, h in sorted(histograms.items())
            },
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4) — no client library needed.

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, namespace: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if namespace:
        sanitized = f"{namespace}_{sanitized}"
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry, *, namespace: str = "repro") -> str:
    """The registry in Prometheus text exposition format.

    Counters render with a ``_total`` suffix, histograms as cumulative
    ``_bucket{le="..."}`` series plus ``_sum``/``_count``, matching what a
    Prometheus scraper expects from ``GET /metrics``.
    """
    counters, gauges, histograms = registry._snapshot()
    lines: list[str] = []
    typed: set[str] = set()

    def declare(metric: str, kind: str) -> None:
        # one # TYPE line per metric family, before its first series
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} {kind}")

    for (name, labels), counter in sorted(counters.items()):
        metric = _metric_name(name, namespace) + "_total"
        declare(metric, "counter")
        lines.append(f"{metric}{_render_labels(labels)} {counter.value}")
    for (name, labels), gauge in sorted(gauges.items()):
        metric = _metric_name(name, namespace)
        declare(metric, "gauge")
        lines.append(f"{metric}{_render_labels(labels)} {gauge.value}")
    for (name, labels), histogram in sorted(histograms.items()):
        metric = _metric_name(name, namespace)
        bounds, counts, count, total = histogram.snapshot()
        declare(metric, "histogram")
        cumulative = 0
        for bound, bucket_count in zip(bounds, counts):
            cumulative += bucket_count
            le = _render_labels(labels, f'le="{bound:g}"')
            lines.append(f"{metric}_bucket{le} {cumulative}")
        cumulative += counts[-1]
        le = _render_labels(labels, 'le="+Inf"')
        lines.append(f"{metric}_bucket{le} {cumulative}")
        lines.append(
            f"{metric}_sum{_render_labels(labels)} {_format_value(total)}"
        )
        lines.append(f"{metric}_count{_render_labels(labels)} {count}")
    return "\n".join(lines) + "\n"


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
]
