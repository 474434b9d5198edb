"""The serving layer: batch/daemon analysis around ``Extractocol.analyze``.

One analysis is a pure function of ``(APK, config)``; this package makes
*fleets* of analyses operable.  Four layers, separately usable:

:mod:`repro.service.store`
    Content-addressed, schema-versioned on-disk result store keyed by
    ``(APK digest, AnalysisConfig.cache_key())`` with atomic writes.

:mod:`repro.service.jobs`
    The daemon's bounded-queue thread-pool scheduler with cache
    integration, in-flight deduplication, per-job timeouts, non-blocking
    retry with backoff and graceful drain.

:mod:`repro.service.shard`
    The batch engine: a coordinator hands each analyzer worker its next
    entry over the worker's own pipe, and result-key leases dedup
    analyses across processes sharing the store — in-process at one
    worker, worker processes above that.

:mod:`repro.service.api`
    Stdlib HTTP JSON API (``repro serve``) exposing submit/status/report/
    metrics/health endpoints.

``repro batch`` (CLI) drives the batch engine directly, no HTTP involved.

Fleet telemetry (worker trace streams, the run ledger) lives
in :mod:`repro.obs.fleet` / :mod:`repro.obs.ledger`; the batch engine and
the daemon write it, ``repro runs`` / ``repro batch --progress`` /
``GET /status`` read it.  The daemon's :class:`MetricsRegistry` lives in
:mod:`repro.obs.metrics` and is re-exported here.
"""

from ..obs.metrics import MetricsRegistry
from .jobs import (
    Job,
    JobScheduler,
    JobStatus,
    JobTimeout,
    QueueFull,
    call_with_timeout,
    resolve_target,
)
from .store import ResultStore, result_key

__all__ = [
    "AnalysisService",
    "Job",
    "JobScheduler",
    "JobStatus",
    "JobTimeout",
    "MetricsRegistry",
    "QueueFull",
    "ResultStore",
    "ShardRecord",
    "call_with_timeout",
    "resolve_target",
    "result_key",
    "run_sharded_batch",
]


def __getattr__(name: str):
    # AnalysisService pulls in http.server, the shard runner pulls in
    # multiprocessing; keep both lazy for plain store/scheduler users.
    if name == "AnalysisService":
        from .api import AnalysisService

        return AnalysisService
    if name in ("ShardRecord", "run_sharded_batch"):
        from . import shard

        return getattr(shard, name)
    raise AttributeError(f"module 'repro.service' has no attribute {name!r}")
