"""Tests for the batch engine (`repro.service.shard`), the store's lease
protocol, and the daemon scheduler's non-blocking retry.

Contracts: a sharded batch writes byte-identical envelopes to an
in-process (one-worker) batch; every batch entry is reported exactly once
no matter which worker steals it; concurrent analyses of the same result
key are deduplicated through lease files; and a retrying job never
head-of-line blocks the jobs queued behind its backoff.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
import time

import pytest

from repro import AnalysisConfig
from repro.cli import main
from repro.corpus import build_app
from repro.service import JobScheduler, JobStatus, ResultStore
from repro.service.shard import (
    ShardRecord,
    available_start_methods,
    default_start_method,
    expand_batch_targets,
    run_sharded_batch,
    shard_of,
)
from repro.service.store import canonical_json

TARGETS = ["diode", "ted", "tzm"]


def analyses_run(records) -> int:
    """The batch's analysis count, derived from its records."""
    return sum(r.counters.get("analyses_run", 0) for r in records)


# ------------------------------------------------------------------ sharding
def test_shards_partition_the_targets():
    targets = [f"t{i}" for i in range(11)]
    seen: list[tuple[int, object]] = []
    for w in range(4):
        shard = shard_of(targets, w, 4)
        assert all(i % 4 == w for i, _ in shard)
        seen.extend(shard)
    assert sorted(seen) == list(enumerate(targets))


def test_sharded_batch_matches_in_process_batch_byte_identically(tmp_path):
    records = run_sharded_batch(tmp_path / "proc", TARGETS, workers=2)
    assert [r.status for r in records] == ["done"] * len(TARGETS)
    assert [r.target for r in records] == TARGETS  # input order
    assert not any(r.cache_hit for r in records)

    run_sharded_batch(tmp_path / "inline", TARGETS, workers=1)

    proc_store = ResultStore(tmp_path / "proc")
    inline_store = ResultStore(tmp_path / "inline")
    assert proc_store.entries() == inline_store.entries()
    for key in proc_store.entries():
        a, b = proc_store.load(key), inline_store.load(key)
        assert canonical_json(a["report"]) == canonical_json(b["report"]), key


def test_warm_sharded_batch_is_all_cache_hits(tmp_path):
    run_sharded_batch(tmp_path / "s", TARGETS, workers=2)
    records = run_sharded_batch(tmp_path / "s", TARGETS, workers=2)
    assert all(r.cache_hit and r.status == "done" for r in records)
    assert analyses_run(records) == 0


def test_duplicate_targets_share_one_analysis(tmp_path):
    """Two batch entries for the same app resolve to the same result key;
    the lease protocol must collapse them onto one analysis."""
    records = run_sharded_batch(tmp_path / "s", ["diode", "diode"],
                                workers=2)
    assert [r.status for r in records] == ["done", "done"]
    assert records[0].result_key == records[1].result_key
    assert analyses_run(records) == 1
    assert sum(r.cache_hit for r in records) == 1
    assert len(ResultStore(tmp_path / "s").entries()) == 1


def test_unresolvable_target_fails_its_record_only(tmp_path):
    records = run_sharded_batch(
        tmp_path / "s", ["diode", "no-such-app"], workers=2
    )
    by_target = {r.target: r for r in records}
    assert by_target["diode"].status == "done"
    assert by_target["no-such-app"].status == "failed"
    assert "LookupError" in by_target["no-such-app"].error


def test_failed_record_carries_structured_error_detail(tmp_path):
    """Beyond the legacy one-line ``error`` string, failures expose the
    exception class, its message, and the worker-side traceback — what a
    fleet operator needs to triage without re-running the target."""
    records = run_sharded_batch(tmp_path / "s", ["no-such-app"], workers=1)
    record = records[0]
    assert record.error_type == "LookupError"
    assert record.error_message  # human text, no class prefix
    assert not record.error_message.startswith("LookupError")
    assert record.error == f"LookupError: {record.error_message}"
    assert "Traceback (most recent call last)" in (record.traceback or "")
    assert "LookupError" in record.traceback
    payload = record.to_dict()
    assert payload["error_type"] == "LookupError"
    assert payload["error_message"] == record.error_message
    assert payload["traceback"] == record.traceback


def test_done_record_carries_phase_seconds(tmp_path):
    """Successful analyses report per-phase wall seconds so the fleet can
    aggregate phase histograms without reopening stored reports."""
    records = run_sharded_batch(tmp_path / "s", ["diode"], workers=1)
    record = records[0]
    assert record.status == "done"
    assert "slicing" in record.phase_seconds
    assert all(v >= 0 for v in record.phase_seconds.values())
    assert record.error_type is None and record.error_message is None
    assert record.to_dict()["phase_seconds"] == record.phase_seconds


def test_sharded_batch_leaves_no_leases(tmp_path):
    run_sharded_batch(tmp_path / "s", TARGETS, workers=2)
    store = ResultStore(tmp_path / "s")
    assert not list(store.leases.glob("*.lease"))


def test_batch_reaps_lease_temp_files_older_than_the_ttl(tmp_path):
    """A claimant killed between writing its lease temp file and linking
    it into place leaves ``leases/.<name>.*.tmp`` behind; the next batch
    removes those older than the lease TTL and keeps fresh ones."""
    store = ResultStore(tmp_path / "s")
    store.leases.mkdir(parents=True)
    stale = store.leases / ".k.killed.tmp"
    fresh = store.leases / ".k.live.tmp"
    for path in (stale, fresh):
        path.write_text("{}")
    old = time.time() - store.lease_ttl - 60
    os.utime(stale, (old, old))
    run_sharded_batch(store.root, ["diode"], workers=1)
    assert not stale.exists()
    assert fresh.exists()


@pytest.fixture
def kept_reports(monkeypatch):
    """Every report ``Extractocol.analyze`` returns in this process."""
    from repro.core.extractocol import Extractocol

    analyze = Extractocol.analyze
    reports = []

    def keep(self, apk, **kwargs):
        reports.append(analyze(self, apk, **kwargs))
        return reports[-1]

    monkeypatch.setattr(Extractocol, "analyze", keep)
    return reports


def test_batch_envelope_clock_is_the_reports_own(tmp_path, kept_reports):
    records = run_sharded_batch(tmp_path / "s", ["diode"], workers=1)
    envelope = ResultStore(tmp_path / "s").load(records[0].result_key)
    assert len(kept_reports) == 1
    assert envelope["analysis_seconds"] == kept_reports[0].analysis_seconds


def test_daemon_envelope_clock_is_the_reports_own(tmp_path, kept_reports):
    """The daemon stores, and its ``analyze_seconds`` histogram observes,
    the report's own figure."""
    store = ResultStore(tmp_path / "s")
    with JobScheduler(store, workers=1) as sched:
        job = sched.submit(build_app("diode"), AnalysisConfig())
        assert job.wait(60) and job.status is JobStatus.DONE
    seconds = kept_reports[0].analysis_seconds
    assert store.load(job.result_key)["analysis_seconds"] == seconds
    assert sched.metrics.histogram("analyze_seconds").summary()["sum"] == (
        seconds
    )


def test_records_carry_one_key_set_at_one_and_two_workers(tmp_path):
    """The in-process and the sharded batch report the same record shape
    (the CLI renders and ``perfbench`` reads either)."""
    shapes = []
    for workers in (1, 2):
        records = run_sharded_batch(tmp_path / f"w{workers}", ["diode", "ted"],
                                    workers=workers)
        assert [r.target for r in records] == ["diode", "ted"]
        assert all(r.status == "done" for r in records)
        assert analyses_run(records) == 2
        shapes.append([set(r.to_dict()) for r in records])
    assert shapes[0] == shapes[1]
    # what perfbench reads from ``repro batch --json`` records
    read = {"target", "status", "cache_hit", "result_key", "worker", "stolen"}
    assert all(read <= shape for shape in shapes[0])


def test_in_process_batch_reports_progress_live(tmp_path):
    """At one worker, ``progress`` fires as each entry completes — the
    store grows between calls — not once the batch is over."""
    store = ResultStore(tmp_path / "s")
    seen = []

    def progress(record, done, total):
        seen.append((done, total, len(store.entries())))

    run_sharded_batch(store.root, TARGETS, workers=1, progress=progress)
    assert seen == [(i, len(TARGETS), i) for i in range(1, len(TARGETS) + 1)]


def test_run_batch_rejects_unknown_target_upfront():
    with pytest.raises(LookupError):
        expand_batch_targets(["diode", "definitely-not-an-app"])


def test_all_synth_batch_never_builds_the_corpus_registry(
    tmp_path, monkeypatch
):
    """Validating synth keys must not materialize the hand-written corpus
    registry (the dominant cost of an all-cache-hit synth batch)."""
    import repro.corpus

    def no_registry(*args, **kwargs):
        raise AssertionError("corpus registry built for an all-synth batch")

    monkeypatch.setattr(repro.corpus, "app_keys", no_registry)
    targets = expand_batch_targets(["synth:transports*2@7"])
    assert len(targets) == 2
    records = run_sharded_batch(tmp_path / "s", targets, workers=1)
    assert [r.status for r in records] == ["done", "done"]


def test_unknown_key_after_synth_keys_still_raises():
    with pytest.raises(LookupError):
        expand_batch_targets(["synth:transports*2@7", "definitely-not-an-app"])


def test_start_method_env_override(monkeypatch):
    if "spawn" not in available_start_methods():
        pytest.skip("spawn unavailable")
    monkeypatch.setenv("REPRO_START_METHOD", "spawn")
    assert default_start_method() == "spawn"
    monkeypatch.setenv("REPRO_START_METHOD", "not-a-method")
    assert default_start_method() is None


# ------------------------------------------------------------ killed workers
KILL_TARGETS = ["diode", "ted", "tzm", "wallabag"]


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the block, instead of hanging the suite, once it has run
    ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def ted_kills_its_worker(monkeypatch):
    """Analysing TED SIGKILLs the worker process doing it, so no
    ``finally`` runs (the OOM killer, an operator).  Only a forked worker
    inherits the patch; the test process itself is never killed."""
    if "fork" not in available_start_methods():
        pytest.skip("fork unavailable")
    from repro.core.extractocol import Extractocol

    analyze = Extractocol.analyze
    test_pid = os.getpid()

    def killed_on_ted(self, apk):
        if apk.name == "TED" and os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return analyze(self, apk)

    monkeypatch.setattr(Extractocol, "analyze", killed_on_ted)
    return monkeypatch


class TestKilledWorker:
    def test_entry_fails_and_a_rerun_matches_a_clean_store(
        self, tmp_path, ted_kills_its_worker
    ):
        with deadline(60):
            records = run_sharded_batch(tmp_path / "s", KILL_TARGETS,
                                        workers=2, start_method="fork")
        by_target = {r.target: r for r in records}
        assert by_target["ted"].status == "failed"
        assert "no result from shard worker (exit code -9)" in (
            by_target["ted"].error
        )
        assert [t for t, r in by_target.items() if r.status == "done"] == [
            "diode", "tzm", "wallabag"
        ]

        ted_kills_its_worker.undo()
        with deadline(60):
            rerun = run_sharded_batch(tmp_path / "s", KILL_TARGETS, workers=2,
                                      start_method="fork")
        assert [r.status for r in rerun] == ["done"] * len(KILL_TARGETS)
        assert analyses_run(rerun) == 1  # TED only

        run_sharded_batch(tmp_path / "clean", KILL_TARGETS, workers=1)
        healed = ResultStore(tmp_path / "s")
        clean = ResultStore(tmp_path / "clean")
        assert healed.entries() == clean.entries()
        for key in clean.entries():
            assert canonical_json(healed.load(key)["report"]) == (
                canonical_json(clean.load(key)["report"])
            ), key
        assert not list(healed.leases.glob("*.lease"))

    def test_cli_batch_exits_1(self, tmp_path, capsys, ted_kills_its_worker):
        ted_kills_its_worker.setenv("REPRO_START_METHOD", "fork")
        with deadline(60):
            code = main(["batch", *KILL_TARGETS, "--workers", "2",
                         "--store", str(tmp_path / "s"), "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["failed"] == 1
        assert [j["target"] for j in data["jobs"] if j["status"] != "done"] \
            == ["ted"]


# -------------------------------------------------------------------- leases
class TestLeases:
    def test_claim_is_exclusive_then_released(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.claim("k1", owner="a")
        assert not store.claim("k1", owner="b")
        holder = store.lease_holder("k1")
        assert holder["owner"] == "a"
        store.release("k1")
        assert store.lease_holder("k1") is None
        assert store.claim("k1", owner="b")

    def test_release_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.release("never-claimed")
        assert store.claim("never-claimed")

    def test_dead_holder_lease_is_broken(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s")
        assert store.claim("k", owner="dead-process")

        import os as os_mod

        def dead(pid, sig):
            raise ProcessLookupError(pid)

        monkeypatch.setattr(os_mod, "kill", dead)
        assert store.claim("k", owner="successor")
        assert store.lease_holder("k")["owner"] == "successor"

    def test_expired_lease_is_broken_by_ttl(self, tmp_path):
        store = ResultStore(tmp_path / "s", lease_ttl=0.05)
        assert store.claim("k", owner="slow")
        time.sleep(0.1)
        assert store.claim("k", owner="successor")

    def test_live_lease_is_not_stolen(self, tmp_path):
        store = ResultStore(tmp_path / "s")  # default 600s TTL, our pid
        assert store.claim("k")
        assert not store.claim("k")

    def test_unreadable_lease_is_stale_at_once(self, tmp_path):
        """``claim`` links every lease in with its payload, so no live
        claimant leaves an empty or corrupt one: it is broken at once, not
        after the TTL."""
        store = ResultStore(tmp_path / "s")  # default 600 s TTL
        store.leases.mkdir(parents=True, exist_ok=True)
        for junk in (b"", b"not json at all", b"[]", b"\xff\xfe"):
            store.lease_path("k").write_bytes(junk)
            assert store.claim("k", owner="successor")
            assert store.lease_holder("k")["owner"] == "successor"
            store.release("k")

    def test_claimant_killed_before_link_leaves_no_lease(
        self, tmp_path, monkeypatch
    ):
        """A claimant that dies after writing its payload aside but before
        linking it into place leaves no lease behind."""
        store = ResultStore(tmp_path / "s")

        def killed(src, dst):
            raise KeyboardInterrupt("killed between write and link")

        monkeypatch.setattr("repro.service.store.os.link", killed)
        with pytest.raises(KeyboardInterrupt):
            store.claim("k", owner="victim")
        monkeypatch.undo()
        assert not store.lease_path("k").exists()
        assert store.claim("k", owner="successor")
        assert store.lease_holder("k")["owner"] == "successor"

    def test_concurrent_claimants_exactly_one_winner(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        wins: list[int] = []
        barrier = threading.Barrier(8)

        def contend(i: int) -> None:
            barrier.wait()
            if store.claim("hot", owner=f"t{i}"):
                wins.append(i)

        threads = [threading.Thread(target=contend, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1


# --------------------------------------------------- non-blocking retry/backoff
class FlakyOnce:
    """Fails the first call for a chosen app, succeeds otherwise."""

    def __init__(self, flaky_app: str):
        self.flaky_app = flaky_app
        self.failed = False

    def __call__(self, apk, config):
        if apk.name and self.flaky_app in apk.name.lower() and not self.failed:
            self.failed = True
            raise ValueError("injected transient failure")
        from repro import Extractocol

        return Extractocol(config).analyze(apk)


def test_retry_backoff_does_not_block_the_queue(tmp_path):
    """Regression for the head-of-line blocking retry: with ONE worker and
    a long backoff, a job queued behind a failing job must complete while
    the failure waits out its backoff, not after it."""
    backoff = 1.5
    sched = JobScheduler(
        ResultStore(tmp_path / "s"),
        workers=1,
        retries=1,
        backoff=backoff,
        analyzer=FlakyOnce("diode"),
    )
    try:
        t0 = time.monotonic()
        flaky = sched.submit_target("diode")
        behind = sched.submit_target("tzm")
        assert behind.wait(timeout=backoff)  # finishes DURING the backoff
        behind_done = time.monotonic() - t0
        assert behind.status is JobStatus.DONE
        assert behind_done < backoff, (
            f"queued job waited {behind_done:.2f}s — head-of-line blocked "
            f"by the {backoff}s retry backoff"
        )
        assert flaky.wait(timeout=30)
        assert flaky.status is JobStatus.DONE
        assert flaky.attempts == 2
        assert sched.metrics.to_dict()["counters"]["jobs_retried"] == 1
    finally:
        sched.shutdown()


def test_drain_shutdown_still_finishes_backed_off_retry(tmp_path):
    """shutdown(drain=True) must not strand a job waiting out its backoff:
    the pending retry is requeued immediately and completes."""
    sched = JobScheduler(
        ResultStore(tmp_path / "s"),
        workers=1,
        retries=1,
        backoff=30.0,  # far longer than the test: drain must skip it
        analyzer=FlakyOnce("diode"),
    )
    flaky = sched.submit_target("diode")
    # wait until the first attempt failed and the retry timer is armed
    deadline = time.monotonic() + 10
    while not sched._retry_pending and time.monotonic() < deadline:
        time.sleep(0.01)
    assert sched._retry_pending
    sched.shutdown(drain=True, timeout=30)
    assert flaky.status is JobStatus.DONE
    assert flaky.attempts == 2


def test_no_drain_shutdown_cancels_backed_off_retry(tmp_path):
    sched = JobScheduler(
        ResultStore(tmp_path / "s"),
        workers=1,
        retries=1,
        backoff=30.0,
        analyzer=FlakyOnce("diode"),
    )
    flaky = sched.submit_target("diode")
    deadline = time.monotonic() + 10
    while not sched._retry_pending and time.monotonic() < deadline:
        time.sleep(0.01)
    assert sched._retry_pending
    sched.shutdown(drain=False, timeout=30)
    assert flaky.status is JobStatus.CANCELLED


def test_shard_record_round_trips_through_queue_payload():
    record = ShardRecord(index=3, target="ted", shard=1, worker=0,
                        stolen=True, label="ted", attempts=2, seconds=0.5)
    payload = json.loads(json.dumps(record.to_dict()))
    clone = ShardRecord(**payload)
    assert clone == record
