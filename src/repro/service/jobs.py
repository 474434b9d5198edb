"""In-process job scheduler: the HTTP daemon's queue (``repro serve``).

The scheduler turns ``Extractocol.analyze`` into a managed workload:

* **one waiting list** feeding a **thread worker pool** (sized by
  :func:`repro.perf.parallel.resolve_workers`: ``0`` means one worker per
  CPU): every job that is neither running nor finished waits there,
  ordered by the time it may start, and one condition guards the list
  and the job table, so the per-status counts behind the daemon's gauges,
  ``/healthz``, ``/status`` and ledger record are read off the table,
* **result-store integration** — a submit whose ``(apk digest, config
  key)`` is already stored completes immediately as a cache hit; every
  other attempt goes through the store protocol the batch engine and
  ``repro diff --store`` share
  (:func:`~repro.service.shard.analyze_through_store`: result-key lease,
  re-probe, analyse, put), so daemons and batches sharing one store run
  one analysis per key,
* **in-flight deduplication** — concurrent submits of the same key share
  one job (and therefore exactly one analysis),
* **backpressure** — :class:`QueueFull` once ``max_queue`` jobs wait,
* **per-job timeout** and **retry with exponential backoff**, by the
  retry rule batch entries share (:func:`~repro.service.shard.retry_delay`).
  The backoff never occupies a worker: a failed job goes back on the
  waiting list, due when its backoff ends, and the worker takes the next
  due job instead of head-of-line blocking everything behind it,
* **shutdown** — ``drain=True`` runs every waiting job at once;
  ``drain=False`` cancels every job that waits or is put back after it.

``repro batch`` does not come through here: it runs the batch engine in
:mod:`repro.service.shard`.  Everything is observable through a
:class:`~repro.obs.metrics.MetricsRegistry`; the analysis histograms
observe each report's own ``analysis_seconds`` and ``phase_stats``.
"""

from __future__ import annotations

import gc
import heapq
import threading
import time
import traceback as traceback_mod
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from ..apk.loader import apk_digest as compute_apk_digest
from ..apk.loader import load_apk
from ..apk.model import Apk
from ..core.config import AnalysisConfig, apply_overrides
from ..obs.metrics import MetricsRegistry
from ..perf.parallel import resolve_workers
from .store import ResultStore


class JobTimeout(Exception):
    """The analysis exceeded the scheduler's per-job deadline."""


class QueueFull(Exception):
    """The bounded submission queue is at capacity (backpressure)."""


class JobStatus(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


_TERMINAL = {JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED}


@dataclass
class Job:
    """One analysis request moving through the scheduler."""

    job_id: str
    label: str
    apk_digest: str
    config_key: str
    status: JobStatus = JobStatus.QUEUED
    cache_hit: bool = False
    attempts: int = 0
    result_key: str | None = None
    error: str | None = None
    traceback: str | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: jobs deduplicated onto this one (their submits returned this Job)
    dedup_count: int = 0
    _apk: Apk | None = field(default=None, repr=False)
    _config: AnalysisConfig | None = field(default=None, repr=False)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def finished(self) -> bool:
        return self.status in _TERMINAL

    @property
    def seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def to_dict(self) -> dict:
        return {
            "id": self.job_id,
            "label": self.label,
            "status": self.status.value,
            "apk_digest": self.apk_digest,
            "config_key": self.config_key,
            "result_key": self.result_key,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
            "dedup_count": self.dedup_count,
            "error": self.error,
            "traceback": self.traceback,
            "seconds": self.seconds,
        }


def lookup_message(exc: Exception) -> str:
    """The message a failed target lookup was raised with.  The unknown-
    key errors of the corpus, lineage and synth registries are
    ``KeyError``s, and ``str()`` of a ``KeyError`` is the repr of its
    message, which would print it in a second pair of quotes."""
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        return str(exc.args[0])
    return str(exc)


def resolve_target(
    target: str, overrides: dict | None = None
) -> tuple[Apk, AnalysisConfig, str]:
    """Resolve a corpus key, ``syn-`` key, lineage version label
    (``app@vN``) or ``.sapk`` path into ``(apk, config, label)`` with the
    same per-app defaults the ``analyze`` CLI verb applies, so stored
    reports are byte-identical to ``repro analyze`` output."""
    from ..corpus import app_config, app_keys, build_app, get_genapp
    from ..corpus.lineage import build_version, is_version_label
    from ..synth import is_synth_key

    if is_version_label(target):
        built = build_version(target)
        apk, config, label = built.apk, built.config, target
    elif is_synth_key(target) or target in app_keys():
        apk = build_app(target)
        config = app_config(get_genapp(target))
        label = target
    else:
        path = Path(target)
        if not path.exists():
            raise LookupError(
                f"{target!r} is neither a corpus app key, a synthesized "
                f"app key (syn-<family>-s<seed>-<index>), a lineage label "
                f"(app@vN), nor an .sapk bundle; known keys: "
                f"{', '.join(app_keys())}"
            )
        apk = load_apk(path)
        config = AnalysisConfig()
        label = apk.name or path.stem
    apply_overrides(config, overrides)
    return apk, config, label


def _default_analyzer(apk: Apk, config: AnalysisConfig, store=None):
    """Run one analysis; with a ``store``, the pipeline also leaves its
    incremental manifest behind (``incremental`` mode reads it back)."""
    from ..core.extractocol import Extractocol

    return Extractocol(config, store=store).analyze(apk)


def call_with_timeout(fn, timeout: float | None):
    """Run ``fn()`` under a wall-clock deadline; raises :class:`JobTimeout`
    when it blows through.  ``None`` means no deadline (no helper thread).

    The store protocol (:func:`~repro.service.shard.analyze_through_store`)
    runs every daemon and batch analysis through it, so a target blows
    its deadline identically under both.

    A timed-out ``fn`` is abandoned on its daemon thread, which may never
    return; an analysis pauses the cyclic collector until it returns, so
    the timeout turns the collector back on if it was on at the call."""
    if timeout is None:
        return fn()
    collector_on = gc.isenabled()
    box: dict = {}

    def run() -> None:
        try:
            box["result"] = fn()
        except BaseException as exc:  # propagated to the caller below
            box["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout)
    if t.is_alive():
        if collector_on:
            gc.enable()
        raise JobTimeout(f"analysis exceeded {timeout:g}s deadline")
    if "error" in box:
        raise box["error"]
    return box["result"]


class JobScheduler:
    """Thread-pool scheduler around the result store, with one waiting list.

    Every job that is neither running nor finished waits in one list,
    ordered by the time it may start; one condition guards that list and
    the job table, so a job's status, the list and every count read off
    the table agree.  ``analyzer`` is injectable for testing (failure
    injection, counting); it must be a ``(apk, config) -> AnalysisReport``
    callable.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        workers: int = 2,
        max_queue: int = 128,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
        metrics: MetricsRegistry | None = None,
        analyzer=None,
    ) -> None:
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_queue = max_queue
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.analyzer = analyzer or (
            lambda apk, config: _default_analyzer(apk, config, store=store)
        )
        self.workers = resolve_workers(workers)
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        #: the waiting list: a heap of ``(due, job_id, job)``, where
        #: ``due`` is the :func:`time.monotonic` time the job may start
        self._waiting: list[tuple[float, str, Job]] = []
        self._cond = threading.Condition()
        self._counter = 0
        self._shutdown = False
        self._drain = True
        self._threads: list[threading.Thread] = []

    def _ensure_workers(self) -> None:
        """Start the thread pool on first submit (caller holds the lock),
        so a scheduler that never gets a job never starts a thread."""
        if self._threads:
            return
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # ----------------------------------------------------------- submit
    def submit(
        self, apk: Apk, config: AnalysisConfig, *, label: str | None = None
    ) -> Job:
        """Enqueue an analysis; returns its :class:`Job`.

        Cache hits complete synchronously without waiting; a submit whose
        key is already waiting or running returns the existing job.  Raises
        :class:`QueueFull` when ``max_queue`` jobs already wait.
        """
        digest = compute_apk_digest(apk)
        config_key = config.cache_key()
        key = f"{digest}-{config_key}"
        with self._cond:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            self._ensure_workers()
            inflight = self._inflight.get(key)
            if inflight is not None:
                inflight.dedup_count += 1
                self.metrics.counter("jobs_deduplicated").inc()
                return inflight
            job = Job(
                job_id=f"j{self._counter:05d}",
                label=label or apk.name or digest[:12],
                apk_digest=digest,
                config_key=config_key,
                submitted_at=time.monotonic(),
                _apk=apk,
                _config=config,
            )
            self._counter += 1
            self._jobs[job.job_id] = job
            self.metrics.counter("jobs_submitted").inc()

            if self.store.lookup(key) is not None:
                # only the hit counts here: a waiting job's attempt
                # counts its own outcome (analyze_through_store)
                self.store.record(hit=True)
                self._finish(job, JobStatus.DONE, cache_hit=True, key=key)
                return job
            if len(self._waiting) >= self.max_queue:
                del self._jobs[job.job_id]
                self.metrics.counter("jobs_rejected").inc()
                raise QueueFull(
                    f"queue at capacity ({self.max_queue}); retry later"
                )
            self._inflight[key] = job
            self._put(job, job.submitted_at)
        return job

    def submit_target(self, target: str, overrides: dict | None = None) -> Job:
        apk, config, label = resolve_target(target, overrides)
        return self.submit(apk, config, label=label)

    # ------------------------------------------------------------ query
    def job(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.job_id)

    def counts(self) -> Counter:
        """Jobs per status value, read off the job table under its lock:
        the one count behind the ``queue_depth`` and ``running`` gauges,
        ``/healthz``, ``/status`` and the serve ledger record.  A status
        no job holds is absent (and reads 0)."""
        with self._cond:
            return Counter(job.status.value for job in self._jobs.values())

    def worker_status(self) -> list[dict]:
        """Liveness of the in-process worker pool (``GET /status`` and the
        ``worker_up`` Prometheus gauges).  Empty until the lazily-started
        pool has spun up."""
        with self._cond:
            threads = list(self._threads)
        return [
            {"worker": thread.name, "alive": thread.is_alive()}
            for thread in threads
        ]

    def wait(self, jobs=None, timeout: float | None = None) -> bool:
        """Block until the given jobs (default: all known) finish.
        Returns False if ``timeout`` elapsed first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in list(jobs) if jobs is not None else self.jobs():
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not job.wait(remaining):
                return False
        return True

    # ------------------------------------------------------------ workers
    def _put(self, job: Job, due: float) -> None:
        """Make ``job`` wait until ``due`` (caller holds the lock)."""
        job.status = JobStatus.QUEUED
        heapq.heappush(self._waiting, (due, job.job_id, job))
        self._cond.notify()

    def _take(self) -> Job | None:
        """Block until the earliest waiting job is due, then mark it
        running and return it.  Once shutdown began every waiting job is
        due at once, and ``None`` means nothing is left to take."""
        with self._cond:
            while True:
                delay = None
                if self._waiting:
                    delay = self._waiting[0][0] - time.monotonic()
                    if delay <= 0 or self._shutdown:
                        _, _, job = heapq.heappop(self._waiting)
                        job.status = JobStatus.RUNNING
                        if job.started_at is None:  # the first attempt's clock
                            job.started_at = time.monotonic()
                        return job
                elif self._shutdown:
                    return None
                self._cond.wait(delay)

    def _worker(self) -> None:
        while (job := self._take()) is not None:
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        """One attempt through the store protocol
        (:func:`~repro.service.shard.analyze_through_store`): a result
        another process stored meanwhile ends the job as a cache hit.  A
        failure the retry rule (:func:`~repro.service.shard.retry_delay`)
        retries goes back on the waiting list, due after its backoff, so
        this worker moves straight on to the next due job."""
        from .shard import analyze_through_store, retry_delay

        key = f"{job.apk_digest}-{job.config_key}"
        apk, config = job._apk, job._config
        job.attempts += 1

        def analyze():
            self.metrics.counter("analyses_run").inc()
            return self.analyzer(apk, config)

        try:
            report = analyze_through_store(
                self.store, job.apk_digest, job.config_key, analyze,
                counters={}, owner=f"daemon-{job.job_id}",
                timeout=self.timeout,
            )
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            job.traceback = traceback_mod.format_exc()
            if isinstance(exc, JobTimeout):
                self.metrics.counter("jobs_timeout").inc()
            delay = retry_delay(
                exc, job.attempts, retries=self.retries, backoff=self.backoff
            )
            with self._cond:
                if delay is None:
                    self._finish(job, JobStatus.FAILED, key=key)
                elif self._shutdown and not self._drain:
                    self._finish(job, JobStatus.CANCELLED, key=key)
                else:
                    self.metrics.counter("jobs_retried").inc()
                    self._put(job, time.monotonic() + delay)
        else:
            if report is not None:  # fresh: observe the report's own clock
                from ..obs.fleet import family_of

                seconds = report.analysis_seconds
                self.metrics.histogram("analyze_seconds").observe(seconds)
                self.metrics.histogram(
                    "app_seconds", labels={"family": family_of(job.label)}
                ).observe(seconds)
                stats = getattr(report, "phase_stats", None)
                if stats is not None:
                    for phase, phase_s in stats.seconds.items():
                        self.metrics.histogram(
                            "phase_seconds", labels={"phase": phase}
                        ).observe(phase_s)
                for finding in getattr(report, "lint_findings", ()) or ():
                    self.metrics.counter(
                        f"lint_findings_{finding.severity.value}"
                    ).inc()
            with self._cond:
                self._finish(job, JobStatus.DONE, key=key,
                             cache_hit=report is None)

    def _finish(
        self,
        job: Job,
        status: JobStatus,
        *,
        key: str,
        cache_hit: bool = False,
    ) -> None:
        """Terminal transition; caller holds the lock."""
        job.status = status
        job.cache_hit = cache_hit
        job.finished_at = time.monotonic()
        if job.started_at is None:  # a hit at submit never ran
            job.started_at = job.finished_at
        if status is JobStatus.DONE:
            job.result_key = key
        elif status is JobStatus.CANCELLED:
            job.error = "cancelled at shutdown"
        self._inflight.pop(key, None)
        if status is JobStatus.DONE:
            self.metrics.counter("jobs_done").inc()
            if job.seconds is not None and not cache_hit:
                self.metrics.histogram("job_seconds").observe(job.seconds)
        elif status is JobStatus.FAILED:
            self.metrics.counter("jobs_failed").inc()
        job._apk = job._config = None  # release the program graph
        job._done.set()

    # ---------------------------------------------------------- shutdown
    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the pool.  ``drain=True`` runs every waiting job at once,
        skipping what is left of its backoff; ``drain=False`` cancels
        every job that waits, or that a failed attempt puts back, from
        now on.  Running attempts finish either way."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown, self._drain = True, drain
            if not drain:
                for _, _, job in self._waiting:
                    self._finish(
                        job,
                        JobStatus.CANCELLED,
                        key=f"{job.apk_digest}-{job.config_key}",
                    )
                self._waiting.clear()
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=True)


__all__ = [
    "Job",
    "JobScheduler",
    "JobStatus",
    "JobTimeout",
    "QueueFull",
    "call_with_timeout",
    "lookup_message",
    "resolve_target",
]
