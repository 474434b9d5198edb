"""Tests for the unified metrics registry: thread-safety under concurrent
observers, the Prometheus text renderer, and the service re-export shim."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)


class TestHistogramConcurrency:
    def test_concurrent_observe_and_summary_consistent(self):
        """observe() and summary() share one lock: a summary taken while
        observers hammer the histogram is internally consistent — its
        bucket counts always sum to its count and sum/min/max agree."""
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        n_threads, per_thread = 8, 500
        inconsistencies: list[str] = []
        start = threading.Barrier(n_threads + 1)

        def observer(seed: int) -> None:
            start.wait()
            for i in range(per_thread):
                h.observe((seed + i) % 20)

        def reader() -> None:
            start.wait()
            for _ in range(200):
                s = h.summary()
                if sum(s["buckets"].values()) != s["count"]:
                    inconsistencies.append("buckets != count")
                if s["count"] and not (s["min"] <= s["max"]):
                    inconsistencies.append("min > max")

        threads = [
            threading.Thread(target=observer, args=(t,)) for t in range(n_threads)
        ] + [threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not inconsistencies
        final = h.summary()
        assert final["count"] == n_threads * per_thread
        assert sum(final["buckets"].values()) == final["count"]

    def test_snapshot_matches_summary(self):
        h = Histogram(buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 5.0):
            h.observe(v)
        bounds, counts, count, total = h.snapshot()
        assert bounds == (1.0, 2.0)
        assert counts == [1, 1, 1]
        assert count == 3
        assert total == pytest.approx(7.0)


class TestPrometheusRendering:
    def test_counter_gauge_histogram_exposition(self):
        reg = MetricsRegistry()
        reg.counter("analyses_run").inc(3)
        reg.gauge("queue_depth").set(2)
        h = reg.histogram("analysis_seconds")
        h.observe(0.02)
        h.observe(0.5)
        h.observe(400.0)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE repro_analyses_run_total counter" in lines
        assert "repro_analyses_run_total 3" in lines
        assert "repro_queue_depth 2" in lines
        # histogram buckets are cumulative and end at +Inf == count
        assert 'repro_analysis_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_analysis_seconds_count 3" in lines
        sum_line = next(
            l for l in lines if l.startswith("repro_analysis_seconds_sum ")
        )
        assert float(sum_line.split()[-1]) == pytest.approx(400.52)
        cumulative = [
            int(l.split()[-1])
            for l in lines
            if l.startswith("repro_analysis_seconds_bucket")
        ]
        assert cumulative == sorted(cumulative)

    def test_metric_name_sanitisation(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits-by route").inc()
        text = render_prometheus(reg)
        assert "repro_cache_hits_by_route_total 1" in text

    def test_render_is_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.gauge("z").set(1)
        assert render_prometheus(reg) == render_prometheus(reg)
        # names render sorted
        text = render_prometheus(reg)
        assert text.index("repro_a_total") < text.index("repro_b_total")


class TestLabeledHistogramExposition:
    """The labeled-histogram text format, scraped by real Prometheus:
    cumulative monotone buckets, a terminal +Inf bucket equal to _count,
    _sum/_count consistency, and label-value escaping."""

    @staticmethod
    def _labeled_registry() -> MetricsRegistry:
        reg = MetricsRegistry()
        for phase, values in (
            ("slicing", (0.002, 0.04, 0.8)),
            ("setup", (0.0005, 500.0)),
        ):
            h = reg.histogram("phase_seconds", labels={"phase": phase})
            for v in values:
                h.observe(v)
        return reg

    def _series(self, text: str, label: str) -> list[str]:
        return [l for l in text.splitlines() if f'phase="{label}"' in l]

    def test_each_label_series_is_cumulative_and_monotone(self):
        text = render_prometheus(self._labeled_registry())
        for phase in ("slicing", "setup"):
            buckets = [
                int(l.split()[-1])
                for l in self._series(text, phase)
                if "_bucket{" in l
            ]
            assert buckets, f"no bucket series for phase={phase}"
            assert buckets == sorted(buckets)

    def test_inf_bucket_terminates_and_equals_count(self):
        text = render_prometheus(self._labeled_registry())
        for phase, expected in (("slicing", 3), ("setup", 2)):
            series = self._series(text, phase)
            buckets = [l for l in series if "_bucket{" in l]
            # +Inf is the last bucket and swallows out-of-range samples
            assert 'le="+Inf"' in buckets[-1]
            assert int(buckets[-1].split()[-1]) == expected
            count = next(l for l in series if "phase_seconds_count{" in l)
            assert int(count.split()[-1]) == expected

    def test_sum_matches_observations_per_series(self):
        text = render_prometheus(self._labeled_registry())
        sums = {
            phase: float(
                next(
                    l
                    for l in self._series(text, phase)
                    if "phase_seconds_sum{" in l
                ).split()[-1]
            )
            for phase in ("slicing", "setup")
        }
        assert sums["slicing"] == pytest.approx(0.842)
        assert sums["setup"] == pytest.approx(500.0005)

    def test_one_type_line_per_family(self):
        text = render_prometheus(self._labeled_registry())
        type_lines = [
            l for l in text.splitlines()
            if l.startswith("# TYPE repro_phase_seconds")
        ]
        assert type_lines == ["# TYPE repro_phase_seconds histogram"]

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter(
            "odd", labels={"path": 'C:\\tmp\\"x"\nend'}
        ).inc()
        text = render_prometheus(reg)
        assert (
            'repro_odd_total{path="C:\\\\tmp\\\\\\"x\\"\\nend"} 1'
            in text.splitlines()
        )

    def test_labeled_and_unlabeled_series_coexist(self):
        reg = MetricsRegistry()
        reg.counter("jobs").inc(5)
        reg.counter("jobs", labels={"status": "failed"}).inc(2)
        text = render_prometheus(reg)
        assert "repro_jobs_total 5" in text.splitlines()
        assert 'repro_jobs_total{status="failed"} 2' in text.splitlines()

    def test_labels_render_sorted_regardless_of_insertion_order(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        reg_a.gauge("up", labels={"b": "2", "a": "1"}).set(1)
        reg_b.gauge("up", labels={"a": "1", "b": "2"}).set(1)
        assert render_prometheus(reg_a) == render_prometheus(reg_b)
        assert 'repro_up{a="1",b="2"} 1' in render_prometheus(reg_a)


class TestCounter:
    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)
