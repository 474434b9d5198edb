"""Worker sizing and executor selection for batch-level parallelism.

An analysis runs in one thread; parallelism lives across apps.  These
helpers size and name the engines that fan *apps* out: the batch scheduler
(:class:`~repro.service.jobs.JobScheduler`, whose ``process`` executor is
the sharded engine in :mod:`repro.service.shard`) and the fleet-index
builder.  Executors:

* ``"serial"`` / ``"thread"`` — in-process;
* ``"process"`` — analyzer worker processes;
* ``"auto"`` — process where fork is available (workers inherit program
  state for free), thread otherwise (spawn shipment costs are only worth
  paying when explicitly requested).

When a process engine cannot start, the caller degrades to threads
*audibly*: :func:`note_executor_fallback` bumps an ``executor_fallbacks``
counter on the global metrics registry and warns once per process.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings

#: Executor names accepted by configs and CLIs ("auto" resolves at run time).
EXECUTORS = ("auto", "serial", "thread", "process")


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


def resolve_executor(executor: str | None) -> str:
    """Map an executor knob to a concrete engine name."""
    if not executor or executor == "auto":
        fork = "fork" in multiprocessing.get_all_start_methods()
        return "process" if fork else "thread"
    if executor not in ("serial", "thread", "process"):
        raise ValueError(
            f"unknown executor {executor!r}; choose one of {EXECUTORS}"
        )
    return executor


# ------------------------------------------------------- fallback accounting
_fallback_warned = False
_fallback_audible = True
_fallback_reasons: list[str] = []


def silence_fallback_warnings() -> None:
    """Suppress the audible one-time ``RuntimeWarning`` in *this* process
    (counting and reason capture continue).  Shard worker processes call
    this so an N-worker fleet doesn't re-emit the same warning N times on
    stderr; the coordinator collects the reasons via
    :func:`take_fallback_reasons` and surfaces them once, through the run
    ledger."""
    global _fallback_audible
    _fallback_audible = False


def take_fallback_reasons() -> list[str]:
    """Drain the fallback reasons recorded in this process since the last
    call (deduplicated, first-seen order)."""
    global _fallback_reasons
    reasons, _fallback_reasons = _fallback_reasons, []
    return list(dict.fromkeys(reasons))


def note_executor_fallback(reason: str) -> None:
    """Record a process→thread executor degradation: bump the
    ``executor_fallbacks`` counter on the global metrics registry, remember
    the reason, and warn once per process (silent degradation hid
    single-core-equivalent behaviour for the whole life of the fork side
    path).  Processes that report the degradation through another channel
    mute the warning with :func:`silence_fallback_warnings`."""
    global _fallback_warned
    from ..obs.metrics import global_registry

    global_registry().counter("executor_fallbacks").inc()
    _fallback_reasons.append(reason)
    if _fallback_audible and not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            f"process executor unavailable ({reason}); falling back to "
            f"threads — expect GIL-bound scaling",
            RuntimeWarning,
            stacklevel=3,
        )


__all__ = [
    "EXECUTORS",
    "note_executor_fallback",
    "resolve_executor",
    "resolve_workers",
    "silence_fallback_warnings",
    "take_fallback_reasons",
    "usable_cpus",
]
