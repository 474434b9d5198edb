"""Service-layer throughput: batch scheduling cold (every job analysed)
vs warm (every job served from the content-addressed store).

The warm path is the serving-layer win: a fleet re-scan after a store
warm-up costs file reads, not analyses.
"""

from __future__ import annotations

import time

import pytest

from repro.service.jobs import JobScheduler
from repro.service.store import ResultStore

APPS = ("blippex", "diode", "tzm", "wallabag", "radioreddit", "weather")


def run_batch(store: ResultStore, workers: int = 4) -> JobScheduler:
    sched = JobScheduler(store, workers=workers)
    try:
        jobs = [sched.submit_target(k) for k in APPS]
        assert sched.wait(jobs, timeout=120)
        assert all(j.status.value == "done" for j in jobs)
    finally:
        sched.shutdown(drain=True)
    return sched


def test_batch_cold(benchmark, tmp_path_factory):
    def setup():
        root = tmp_path_factory.mktemp("cold")
        return (ResultStore(root),), {}

    def cold(store):
        sched = run_batch(store)
        assert sched.metrics.counter("analyses_run").value == len(APPS)

    benchmark.pedantic(cold, setup=setup, rounds=3, iterations=1)


def test_batch_warm(benchmark, tmp_path):
    store = ResultStore(tmp_path / "store")
    run_batch(store)  # warm-up pass populates the store

    def warm():
        sched = run_batch(store)
        assert sched.metrics.counter("analyses_run").value == 0

    benchmark.pedantic(warm, rounds=3, iterations=1)


def test_warm_is_faster_than_cold(tmp_path):
    store = ResultStore(tmp_path / "store")
    t0 = time.perf_counter()
    run_batch(store)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    sched = run_batch(store)
    warm = time.perf_counter() - t0
    assert sched.metrics.counter("analyses_run").value == 0
    assert warm < cold, f"warm batch ({warm:.3f}s) not faster than cold ({cold:.3f}s)"
