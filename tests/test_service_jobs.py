"""Scheduler behaviour: caching, dedup, failure paths (timeout, injected
exceptions, retry-with-backoff), backpressure and drain — following the
failure-injection patterns of ``test_failure_injection.py``."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import AnalysisConfig
from repro.corpus import build_app
from repro.service.jobs import JobScheduler, JobStatus, QueueFull
from repro.service.store import ResultStore


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def make_scheduler(store, **kw):
    kw.setdefault("workers", 2)
    return JobScheduler(store, **kw)


class CountingAnalyzer:
    """Wraps the real pipeline, counting invocations (optionally failing
    or stalling first) — the scheduler-level failure-injection hook."""

    def __init__(self, fail_times: int = 0, delay: float = 0.0,
                 exc: type[Exception] = ValueError):
        self.calls = 0
        self.fail_times = fail_times
        self.delay = delay
        self.exc = exc
        self._lock = threading.Lock()

    def __call__(self, apk, config):
        with self._lock:
            self.calls += 1
            call = self.calls
        if self.delay:
            time.sleep(self.delay)
        if call <= self.fail_times:
            raise self.exc(f"injected failure #{call}")
        from repro import Extractocol

        return Extractocol(config).analyze(apk)


class TestHappyPath:
    def test_batch_then_all_cache_hits(self, store):
        analyzer = CountingAnalyzer()
        with make_scheduler(store, analyzer=analyzer) as sched:
            jobs = [sched.submit_target(k) for k in ("diode", "tzm")]
            assert sched.wait(jobs, timeout=30)
            assert all(j.status is JobStatus.DONE for j in jobs)
            assert all(not j.cache_hit for j in jobs)
            assert analyzer.calls == 2

            again = [sched.submit_target(k) for k in ("diode", "tzm")]
            assert all(j.status is JobStatus.DONE for j in again)
            assert all(j.cache_hit for j in again)
            assert analyzer.calls == 2  # zero re-analyses
            assert [j.result_key for j in again] == [
                j.result_key for j in jobs
            ]

    def test_cache_shared_across_scheduler_restart(self, store):
        analyzer = CountingAnalyzer()
        with make_scheduler(store, analyzer=analyzer) as sched:
            job = sched.submit_target("wallabag")
            assert sched.wait([job], timeout=30)
        analyzer2 = CountingAnalyzer()
        with make_scheduler(store, analyzer=analyzer2) as sched:
            job = sched.submit_target("wallabag")
            assert job.cache_hit and job.status is JobStatus.DONE
            assert analyzer2.calls == 0

    def test_execution_knob_does_not_shard_cache(self, store):
        with make_scheduler(store) as sched:
            apk = build_app("blippex")
            j1 = sched.submit(apk, AnalysisConfig())
            assert sched.wait([j1], timeout=30)
            j2 = sched.submit(apk, AnalysisConfig(mode="incremental"))
            assert j2.cache_hit


class TestDeduplication:
    def test_concurrent_submits_one_analysis(self, store):
        analyzer = CountingAnalyzer(delay=0.2)
        with make_scheduler(store, analyzer=analyzer, workers=4) as sched:
            apk = build_app("diode")
            config = AnalysisConfig()
            jobs = []
            for _ in range(6):
                jobs.append(sched.submit(apk, config))
            assert sched.wait(jobs, timeout=30)
            assert len({j.job_id for j in jobs}) == 1
            assert analyzer.calls == 1
            assert jobs[0].dedup_count == 5
            counters = sched.metrics.to_dict()["counters"]
            assert counters["jobs_deduplicated"] == 5
            assert counters["analyses_run"] == 1


class TestFailurePaths:
    def test_injected_exception_marks_failed_with_traceback(self, store):
        analyzer = CountingAnalyzer(fail_times=10)
        with make_scheduler(store, analyzer=analyzer, retries=1,
                            backoff=0.01) as sched:
            job = sched.submit_target("diode")
            assert sched.wait([job], timeout=30)
            assert job.status is JobStatus.FAILED
            assert job.attempts == 2  # initial + one retry
            assert "ValueError" in job.error
            assert "injected failure" in job.traceback
            counters = sched.metrics.to_dict()["counters"]
            assert counters["jobs_failed"] == 1
            assert counters["jobs_retried"] == 1

    def test_retry_succeeds_on_second_attempt(self, store):
        analyzer = CountingAnalyzer(fail_times=1)
        with make_scheduler(store, analyzer=analyzer, retries=1,
                            backoff=0.01) as sched:
            job = sched.submit_target("diode")
            assert sched.wait([job], timeout=30)
            assert job.status is JobStatus.DONE
            assert job.attempts == 2
            assert analyzer.calls == 2
            assert store.lookup(job.result_key) is not None

    def test_timeout_marks_failed_without_retry(self, store):
        analyzer = CountingAnalyzer(delay=5.0)
        with make_scheduler(store, analyzer=analyzer, timeout=0.1,
                            retries=3) as sched:
            job = sched.submit_target("diode")
            assert sched.wait([job], timeout=30)
            assert job.status is JobStatus.FAILED
            assert "deadline" in job.error
            assert job.attempts == 1  # deadline failures are terminal
            assert sched.metrics.to_dict()["counters"]["jobs_timeout"] == 1

    def test_failed_job_leaves_no_store_entry(self, store):
        analyzer = CountingAnalyzer(fail_times=10)
        with make_scheduler(store, analyzer=analyzer, retries=0) as sched:
            job = sched.submit_target("diode")
            assert sched.wait([job], timeout=30)
            assert job.status is JobStatus.FAILED
        assert store.entries() == []
        # next submit re-runs the analysis rather than serving a failure
        analyzer2 = CountingAnalyzer()
        with make_scheduler(store, analyzer=analyzer2) as sched:
            job = sched.submit_target("diode")
            assert sched.wait([job], timeout=30)
            assert job.status is JobStatus.DONE
            assert analyzer2.calls == 1


class TestBackpressureAndShutdown:
    def test_bounded_queue_rejects_when_full(self, store):
        analyzer = CountingAnalyzer(delay=0.5)
        sched = make_scheduler(store, analyzer=analyzer, workers=1,
                               max_queue=1)
        try:
            apps = ["diode", "tzm", "wallabag", "blippex"]
            accepted, rejected = [], 0
            for key in apps:
                try:
                    accepted.append(sched.submit_target(key))
                except QueueFull:
                    rejected += 1
            assert rejected >= 1
            assert sched.metrics.to_dict()["counters"]["jobs_rejected"] >= 1
            assert sched.wait(accepted, timeout=30)
        finally:
            sched.shutdown(drain=True)

    def test_drain_finishes_queued_work(self, store):
        analyzer = CountingAnalyzer(delay=0.05)
        sched = make_scheduler(store, analyzer=analyzer, workers=1)
        jobs = [sched.submit_target(k) for k in ("diode", "tzm", "wallabag")]
        sched.shutdown(drain=True)
        assert all(j.status is JobStatus.DONE for j in jobs)
        assert analyzer.calls == 3

    def test_no_drain_cancels_queued_work(self, store):
        analyzer = CountingAnalyzer(delay=0.3)
        sched = make_scheduler(store, analyzer=analyzer, workers=1)
        jobs = [sched.submit_target(k) for k in ("diode", "tzm", "wallabag")]
        time.sleep(0.05)  # let the single worker pick up the first job
        sched.shutdown(drain=False)
        states = [j.status for j in jobs]
        assert JobStatus.CANCELLED in states
        assert all(j.finished for j in jobs)

    def test_drain_shutdown_as_a_backoff_ends_finishes_every_job(
        self, tmp_path
    ):
        """``shutdown(drain=True)`` called around the moment a retry's
        backoff ends, round after round: whichever side of that moment it
        lands, the retry runs and the job finishes."""
        backoff = 0.02
        for round_ in range(24):
            sched = make_scheduler(
                ResultStore(tmp_path / f"s{round_}"), workers=1, retries=1,
                backoff=backoff, analyzer=CountingAnalyzer(fail_times=1),
            )
            job = sched.submit_target("tzm")
            deadline = time.monotonic() + 10
            while not (job.error and job.status is JobStatus.QUEUED):
                assert time.monotonic() < deadline, "first attempt never failed"
                time.sleep(0.001)
            time.sleep(backoff * (round_ % 6) / 4)  # 0 to 1.25 backoffs
            sched.shutdown(drain=True, timeout=30)
            assert job.wait(3), f"round {round_}: the retry was stranded"
            assert job.status is JobStatus.DONE and job.attempts == 2

    def test_attempt_failing_after_no_drain_shutdown_is_cancelled(
        self, store
    ):
        """A running attempt that fails once ``shutdown(drain=False)``
        began is not retried: its job ends cancelled."""
        started, release = threading.Event(), threading.Event()
        calls = []

        def analyzer(apk, config):
            calls.append(apk.name)
            started.set()
            release.wait(30)
            raise ValueError("injected failure")

        sched = make_scheduler(store, workers=1, retries=3, backoff=0.01,
                               analyzer=analyzer)
        job = sched.submit_target("diode")
        assert started.wait(30)
        sched.shutdown(drain=False, timeout=0.05)  # the attempt still runs
        release.set()
        assert job.wait(30)
        assert job.status is JobStatus.CANCELLED
        assert job.attempts == 1 and len(calls) == 1

    def test_many_workers_share_one_waiting_list(self, store):
        """Stress: more worker threads than cores, a short switch
        interval, and every other app failing its first attempt.  Each
        job runs one attempt at a time, ends done after the attempts the
        retry rule allows, and the table's counts hold only done jobs."""
        from repro.synth import parse_population

        keys = parse_population("synth:transports*12@7").keys()
        active, seen, lock = set(), set(), threading.Lock()

        def analyzer(apk, config):
            with lock:
                assert apk.name not in active, "one job ran twice at once"
                active.add(apk.name)
                first = apk.name not in seen
                seen.add(apk.name)
            try:
                if first and int(apk.name.rsplit("#", 1)[1]) % 2:
                    raise ValueError("injected first-attempt failure")
                from repro import Extractocol

                return Extractocol(config).analyze(apk)
            finally:
                with lock:
                    active.discard(apk.name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sched = make_scheduler(store, workers=8, retries=1,
                                   backoff=0.001, analyzer=analyzer)
            jobs = [sched.submit_target(key) for key in keys]
            assert sched.wait(jobs, timeout=120)
            sched.shutdown(drain=True, timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert all(j.status is JobStatus.DONE for j in jobs)
        assert [j.attempts for j in jobs] == [1, 2] * (len(jobs) // 2)
        counters = sched.metrics.to_dict()["counters"]
        assert counters["jobs_retried"] == len(jobs) // 2
        assert counters["analyses_run"] == len(jobs) + len(jobs) // 2
        assert sched.counts() == {"done": len(jobs)}
        assert not any(w["alive"] for w in sched.worker_status())

    def test_submit_after_shutdown_raises(self, store):
        sched = make_scheduler(store)
        sched.shutdown()
        with pytest.raises(RuntimeError):
            sched.submit_target("diode")
