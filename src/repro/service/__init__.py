"""The serving layer: batch/daemon analysis around ``Extractocol.analyze``.

One analysis is a pure function of ``(APK, config)``; this package makes
*fleets* of analyses operable.  Four layers, separately usable:

:mod:`repro.service.store`
    Content-addressed, schema-versioned on-disk result store keyed by
    ``(APK digest, AnalysisConfig.cache_key())`` with atomic writes.

:mod:`repro.service.jobs`
    The daemon's thread-pool scheduler over one bounded waiting list,
    with cache integration, in-flight deduplication, per-job timeouts,
    non-blocking retry with backoff and graceful drain.

:mod:`repro.service.shard`
    The batch engine: a coordinator hands each analyzer worker its next
    entry over the worker's own pipe — in-process at one worker, worker
    processes above that.  Its store protocol,
    :func:`~repro.service.shard.analyze_through_store`, which daemon jobs
    and ``repro diff --store`` share, dedups analyses across processes
    sharing the store through result-key leases; its retry rule,
    :func:`~repro.service.shard.retry_delay`, is the daemon's too.

:mod:`repro.service.api`
    Stdlib HTTP JSON API (``repro serve``) exposing submit/status/report/
    metrics/health endpoints.

``repro batch`` (CLI) drives the batch engine directly, no HTTP involved.

Fleet telemetry (worker trace streams, the run ledger) lives
in :mod:`repro.obs.fleet` / :mod:`repro.obs.ledger`; the batch engine and
the daemon write it, ``repro runs`` / ``repro batch --progress`` /
``GET /status`` read it.  The daemon's metrics registry lives in
:mod:`repro.obs.metrics`.
"""
