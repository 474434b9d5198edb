"""Worker sizing for batch-level parallelism.

An analysis runs in one thread; parallelism lives across apps.  These
helpers size the engines that fan *apps* out: the batch engine in
:mod:`repro.service.shard` (one worker runs in-process, more are worker
processes) and the daemon's thread pool
(:class:`~repro.service.jobs.JobScheduler`).
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """The number of cores *this process may run on* — the scheduler
    affinity mask where the platform exposes one (containers and
    cgroup-limited hosts often pin far fewer cores than the machine
    has), falling back to ``os.cpu_count``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count knob: ``None``/``0`` means one worker per
    *usable* CPU, negative values are clamped to 1."""
    if not workers:
        return usable_cpus()
    return max(1, workers)


__all__ = [
    "resolve_workers",
    "usable_cpus",
]
