"""Tests for the batch engine (`repro.service.shard`), the store's lease
protocol, and the daemon scheduler's non-blocking retry.

Contracts: a sharded batch writes byte-identical envelopes to an
in-process (one-worker) batch; every batch entry is reported exactly once
no matter which worker runs it, and a dead worker loses only the entry it
held; concurrent analyses of the same result key are deduplicated through
lease files, whether batch workers, daemon jobs or both take them; and a
retrying job never head-of-line blocks the jobs queued behind its backoff.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import AnalysisConfig
from repro.cli import main
from repro.corpus import build_app
from repro.fleetindex.index import FleetIndex, build_index, index_root
from repro.service.jobs import JobScheduler, JobStatus, JobTimeout
from repro.service.store import ResultStore, canonical_json
from repro.service.shard import (
    LeaseWaitTimeout,
    ShardRecord,
    available_start_methods,
    default_start_method,
    expand_batch_targets,
    retry_delay,
    run_sharded_batch,
)

TARGETS = ["diode", "ted", "tzm"]


def analyses_run(records) -> int:
    """The batch's analysis count, derived from its records."""
    return sum(r.counters.get("analyses_run", 0) for r in records)


# ------------------------------------------------------------------ sharding
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


def test_batch_reaps_store_temp_files_older_than_the_ttl(tmp_path):
    """A writer killed inside ``atomic_write`` leaves ``.<name>.*.tmp`` in
    ``objects/<xx>/``, ``manifests/`` or ``index/``; the next batch
    removes those older than the lease TTL and keeps fresh ones."""
    store = ResultStore(tmp_path / "s")
    stale, fresh = [], []
    for directory in (store.objects / "ab", store.manifests,
                      index_root(store.root)):
        directory.mkdir(parents=True, exist_ok=True)
        stale.append(directory / ".killed.x1.tmp")
        fresh.append(directory / ".live.x2.tmp")
    old = time.time() - store.lease_ttl - 60
    for path in stale + fresh:
        path.write_text("{")
    for path in stale:
        os.utime(path, (old, old))
    run_sharded_batch(store.root, ["diode"], workers=1)
    assert [p for p in stale if p.exists()] == []
    assert all(p.exists() for p in fresh)


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
    read = {"target", "status", "cache_hit", "result_key", "worker"}
    assert all(read <= shape for shape in shapes[0])


def test_in_process_batch_reports_progress_live(tmp_path):
    """At one worker, ``progress`` fires as each entry completes — the
    store grows between calls — not once the batch is over."""
    store = ResultStore(tmp_path / "s")
    seen = []

    def progress(record, done, total, in_flight):
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


def test_lineage_labels_are_validated_without_building(monkeypatch):
    from repro.corpus.lineage import LineageVersion

    def no_build(self):
        raise AssertionError(f"{self.label} built while validating")

    monkeypatch.setattr(LineageVersion, "materialize", no_build)
    labels = ["reddinator@v2", "syn-evolution-s7-0000@v2"]
    assert expand_batch_targets(labels) == labels
    for bad in ("reddinator@v9", "no-such-app@v1", "reddinator@2"):
        with pytest.raises(LookupError):
            expand_batch_targets(["diode", bad])


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


def die_in_workers(monkeypatch, deaths: dict) -> None:
    """A forked worker that starts analysing an app named in ``deaths``
    calls ``deaths[name]()``, which ends it; the test process never does."""
    if "fork" not in available_start_methods():
        pytest.skip("fork unavailable")
    from repro.core.extractocol import Extractocol

    analyze = Extractocol.analyze
    test_pid = os.getpid()

    def dying(self, apk):
        if apk.name in deaths and os.getpid() != test_pid:
            deaths[apk.name]()
        return analyze(self, apk)

    monkeypatch.setattr(Extractocol, "analyze", dying)


def sigkill() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def ted_kills_its_worker(monkeypatch):
    """Analysing TED SIGKILLs the worker process doing it, so no
    ``finally`` runs (the OOM killer, an operator).  Only a forked worker
    inherits the patch; the test process itself is never killed."""
    die_in_workers(monkeypatch, {"TED": sigkill})
    return monkeypatch


@pytest.fixture
def ted_tears_its_record(monkeypatch):
    """The worker that analysed TED is SIGKILLed halfway through writing
    TED's record: the frame's length header and half its payload reach
    the pipe.  The patch sits under ``Connection.send`` and under a shared
    ``SimpleQueue.put`` alike; the latter holds the queue's write lock
    around it, so there every other worker blocks on its next ``put``."""
    if "fork" not in available_start_methods():
        pytest.skip("fork unavailable")
    from multiprocessing.connection import Connection

    from repro.core.extractocol import Extractocol

    analyze = Extractocol.analyze
    send_bytes = Connection._send_bytes
    test_pid = os.getpid()
    armed: list[bool] = []  # a forked worker appends to its own copy

    def arm_on_ted(self, apk):
        if apk.name == "TED" and os.getpid() != test_pid:
            armed.append(True)
        return analyze(self, apk)

    def torn(self, buf):
        if armed:
            os.write(self.fileno(),
                     struct.pack("!i", len(buf)) + bytes(buf[:len(buf) // 2]))
            os.kill(os.getpid(), signal.SIGKILL)
        return send_bytes(self, buf)

    monkeypatch.setattr(Extractocol, "analyze", arm_on_ted)
    monkeypatch.setattr(Connection, "_send_bytes", torn)
    return monkeypatch


@pytest.fixture
def ted_dies_mid_put(monkeypatch):
    """The worker storing TED's report is SIGKILLed inside
    ``write_pending_delta`` for TED's result key: after TED's envelope
    landed, before its pending marker, with the result-key lease held."""
    if "fork" not in available_start_methods():
        pytest.skip("fork unavailable")
    from repro.apk.loader import apk_digest
    from repro.fleetindex import index
    from repro.service.jobs import resolve_target
    from repro.service.store import result_key

    apk, config, _ = resolve_target("ted")
    ted_key = result_key(apk_digest(apk), config.cache_key())
    mark = index.write_pending_delta
    test_pid = os.getpid()

    def dying(store_root, key):
        if key == ted_key and os.getpid() != test_pid:
            sigkill()
        return mark(store_root, key)

    monkeypatch.setattr(index, "write_pending_delta", dying)
    return monkeypatch


def index_files(store) -> dict[str, bytes]:
    """Every fleet index file's bytes, keyed by relative path."""
    base = index_root(store.root)
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*.json"))}


def assert_ted_lost_then_healed(root, patch, *, reanalyzed: int):
    """TED's entry fails with its worker's exit code while the other
    entries finish; with ``patch`` undone, a rerun runs ``reanalyzed``
    analyses (TED's, or none if TED's envelope landed before its worker
    died) and leaves a store identical to a clean one, with no lease
    left: a worker killed while it held TED's result-key lease leaves a
    stale lease that the end of a batch reaps, even when every later
    probe is a cache hit that never claims it.

    The store has a fleet index before the batch, so folding the healed
    store is incremental: it must index every stored report and land on
    the clean store's index bytes and reader stats."""
    build_index(ResultStore(root / "s"))
    with deadline(60):
        records = run_sharded_batch(root / "s", KILL_TARGETS,
                                    workers=2, start_method="fork")
    by_target = {r.target: r for r in records}
    assert by_target["ted"].status == "failed"
    assert "no result from shard worker (exit code -9)" in (
        by_target["ted"].error
    )
    assert [t for t, r in by_target.items() if r.status == "done"] == [
        "diode", "tzm", "wallabag"
    ]

    patch.undo()
    with deadline(60):
        rerun = run_sharded_batch(root / "s", KILL_TARGETS, workers=2,
                                  start_method="fork")
    assert [r.status for r in rerun] == ["done"] * len(KILL_TARGETS)
    assert analyses_run(rerun) == reanalyzed

    run_sharded_batch(root / "clean", KILL_TARGETS, workers=1)
    healed = ResultStore(root / "s")
    clean = ResultStore(root / "clean")
    assert healed.entries() == clean.entries()
    for key in clean.entries():
        assert canonical_json(healed.load(key)["report"]) == (
            canonical_json(clean.load(key)["report"])
        ), key
    assert not list(healed.leases.glob("*.lease"))

    for store in (healed, clean):
        build_index(store)
    assert index_files(healed) == index_files(clean)
    assert (FleetIndex(healed).load().stats()
            == FleetIndex(clean).load().stats())


def test_two_concurrent_batches_over_one_store_analyse_each_target_once(
    tmp_path,
):
    """Fault matrix: two ``repro batch`` processes start together over the
    same targets and store.  Both exit 0, their ``analyses_run`` add up to
    one per target, and the store's report payloads match a store one
    batch filled."""
    src = str(Path(repro.__file__).resolve().parents[1])
    command = [sys.executable, "-m", "repro", "batch", *TARGETS, "--store",
               str(tmp_path / "shared"), "--workers", "1", "--no-telemetry",
               "--no-ledger", "--json"]
    procs = [
        subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    runs = [json.loads(out) for out in outputs]
    assert sum(run["analyses_run"] for run in runs) == len(set(TARGETS))

    run_sharded_batch(tmp_path / "single", TARGETS, workers=1)
    shared = ResultStore(tmp_path / "shared")
    single = ResultStore(tmp_path / "single")
    assert shared.entries() == single.entries()
    for key in single.entries():
        assert canonical_json(shared.load(key)["report"]) == (
            canonical_json(single.load(key)["report"])
        ), key
    assert not list(shared.leases.glob("*.lease"))


class TestKilledWorker:
    def test_entry_fails_and_a_rerun_matches_a_clean_store(
        self, tmp_path, ted_kills_its_worker
    ):
        assert_ted_lost_then_healed(tmp_path, ted_kills_its_worker,
                                    reanalyzed=1)

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


class TestTornRecordFrame:
    def test_other_workers_finish_and_a_rerun_matches_a_clean_store(
        self, tmp_path, ted_tears_its_record
    ):
        # the worker stores TED's envelope before it sends the record
        assert_ted_lost_then_healed(tmp_path, ted_tears_its_record,
                                    reanalyzed=0)


class TestKilledMidPut:
    def test_a_fold_indexes_the_report_whose_marker_never_landed(
        self, tmp_path, ted_dies_mid_put
    ):
        # TED's envelope is stored, so the rerun is a cache hit that puts
        # nothing: only the fold's envelope scan can index it
        assert_ted_lost_then_healed(tmp_path, ted_dies_mid_put,
                                    reanalyzed=0)


class TestDispatcher:
    """The coordinator hands out one entry at a time, so it knows which
    entry each worker holds when that worker dies."""

    def test_each_lost_entry_names_its_own_workers_exit_code(
        self, tmp_path, monkeypatch
    ):
        die_in_workers(monkeypatch, {"TED": sigkill, "TZM": lambda: os._exit(3)})
        with deadline(60):
            records = run_sharded_batch(tmp_path / "s", KILL_TARGETS,
                                        workers=3, start_method="fork")
        by_target = {r.target: r for r in records}
        assert by_target["ted"].error == (
            "no result from shard worker (exit code -9)"
        )
        assert by_target["tzm"].error == (
            "no result from shard worker (exit code 3)"
        )
        assert [t for t, r in by_target.items() if r.status == "done"] == [
            "diode", "wallabag"
        ]
        # each lost record names the worker that held its entry
        lost = {by_target["ted"].worker, by_target["tzm"].worker}
        assert len(lost) == 2 and -1 not in lost

    def test_entries_nobody_started_fail_once_every_worker_died(
        self, tmp_path, monkeypatch
    ):
        die_in_workers(monkeypatch, {"Diode": sigkill, "TED": sigkill,
                                     "TZM": sigkill, "Wallabag": sigkill})
        with deadline(60):
            records = run_sharded_batch(tmp_path / "s", KILL_TARGETS,
                                        workers=2, start_method="fork")
        assert [r.status for r in records] == ["failed"] * len(KILL_TARGETS)
        assert [r.error for r in records[:2]] == [
            "no result from shard worker (exit code -9)"
        ] * 2
        assert [(r.worker, r.error) for r in records[2:]] == [
            (-1, "no result from shard worker "
                 "(every worker exited before it started)")
        ] * 2

    def test_an_entry_sent_to_a_worker_that_just_exited_goes_to_another(
        self, tmp_path, monkeypatch
    ):
        """Diode's worker exits right after sending Diode's record, so the
        coordinator's next send to it fails: that entry goes back to the
        queue and the other worker runs it and every later one."""
        if "fork" not in available_start_methods():
            pytest.skip("fork unavailable")
        from multiprocessing.connection import Connection

        send = Connection.send
        test_pid = os.getpid()

        def send_then_exit(self, obj):
            send(self, obj)
            if os.getpid() != test_pid and isinstance(obj, dict) and (
                obj["target"] == "diode"
            ):
                os._exit(0)

        monkeypatch.setattr(Connection, "send", send_then_exit)
        children = len(multiprocessing.active_children())

        def progress(record, done, total, in_flight):
            while (record.target == "diode"
                   and len(multiprocessing.active_children()) > children + 1):
                time.sleep(0.01)  # until Diode's worker has exited

        with deadline(60):
            records = run_sharded_batch(tmp_path / "s", KILL_TARGETS,
                                        workers=2, start_method="fork",
                                        progress=progress)
        assert [r.status for r in records] == ["done"] * len(KILL_TARGETS)
        survivor = records[1].worker
        assert records[0].worker != survivor
        assert [r.worker for r in records[2:]] == [survivor, survivor]

    def test_workers_exit_quietly_once_the_coordinator_is_gone(self, tmp_path):
        """A worker reads EOF (or a broken pipe) once its coordinator dies,
        and exits without a traceback.  ``communicate`` returns only when
        every process holding the captured stderr pipe, the workers
        included, has exited."""
        if "fork" not in available_start_methods():
            pytest.skip("fork unavailable")
        script = textwrap.dedent("""
            import os, signal, sys
            from repro.core.extractocol import Extractocol
            from repro.service.shard import run_sharded_batch

            analyze = Extractocol.analyze
            coordinator = os.getpid()

            def kill_coordinator(self, apk):
                if apk.name == "TED":
                    os.kill(coordinator, signal.SIGKILL)
                return analyze(self, apk)

            Extractocol.analyze = kill_coordinator
            run_sharded_batch(sys.argv[1], ["diode", "ted", "tzm", "wallabag"],
                              workers=2, start_method="fork")
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "s")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
        )
        try:
            _out, err = proc.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # workers a failure left
        assert proc.returncode == -signal.SIGKILL
        assert "Traceback" not in err, err


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_leaves_no_claim_files_and_only_trace_files(
    tmp_path, monkeypatch, workers
):
    """The coordinator's dispatch alone decides who runs an entry: the
    only leases a batch takes are the store-wide result-key leases, and
    its telemetry is the worker streams and their merge."""
    if "fork" not in available_start_methods():
        pytest.skip("fork unavailable")
    claimed = tmp_path / "claimed.txt"
    claim = ResultStore.claim

    def spy(self, name, **kwargs):
        with open(claimed, "a") as fh:  # forked workers append too
            fh.write(name + "\n")
        return claim(self, name, **kwargs)

    monkeypatch.setattr(ResultStore, "claim", spy)
    run_dir = tmp_path / "s" / "telemetry" / "r"
    records = run_sharded_batch(tmp_path / "s", TARGETS, workers=workers,
                                start_method="fork", run_id="r",
                                telemetry_dir=run_dir)
    names = claimed.read_text().split()
    assert sorted(names) == sorted(r.result_key for r in records)
    assert not any(name.startswith("batch-") for name in names)
    assert list(ResultStore(tmp_path / "s").leases.iterdir()) == []
    assert sorted(p.name for p in run_dir.iterdir()) == ["fleet.trace.jsonl"] + [
        f"worker-{n}.trace.jsonl" for n in range(workers)
    ]


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


class TestLeaseWait:
    """A worker whose result key is leased by another live process waits
    for that process's envelope instead of analysing."""

    @pytest.fixture
    def leased_diode(self, tmp_path):
        """A store whose diode result key another live holder leases."""
        from repro.apk.loader import apk_digest
        from repro.service.jobs import resolve_target
        from repro.service.store import result_key

        apk, config, _label = resolve_target("diode")
        store = ResultStore(tmp_path / "s")
        key = result_key(apk_digest(apk), config.cache_key())
        assert store.claim(key, owner="other-daemon")
        yield store, apk, config
        store.release(key)

    def test_wait_times_out_naming_the_holder(self, leased_diode, monkeypatch):
        store, _apk, _config = leased_diode
        monkeypatch.setattr("repro.service.shard.LEASE_WAIT_SECONDS", 0.2)
        [record] = run_sharded_batch(store.root, ["diode"], workers=1)
        assert record.status == "failed"
        assert record.error_type == "LeaseWaitTimeout"
        assert record.error == f"LeaseWaitTimeout: {record.error_message}"
        assert "'owner': 'other-daemon'" in record.error_message
        assert analyses_run([record]) == 0

    def test_holders_envelope_landing_is_a_cache_hit(
        self, leased_diode, monkeypatch
    ):
        from repro.apk.loader import apk_digest
        from repro.core.extractocol import Extractocol

        store, apk, config = leased_diode
        report = Extractocol(config).analyze(apk)
        claim = ResultStore.claim

        def refused_then_lands(self, name, **kwargs):
            won = claim(self, name, **kwargs)
            if not won and not store.entries():
                # the holder stores its result while this worker waits
                store.put(apk_digest(apk), config.cache_key(), report)
            return won

        def no_analysis(self, apk):
            raise AssertionError("the waiting worker analysed")

        monkeypatch.setattr(ResultStore, "claim", refused_then_lands)
        monkeypatch.setattr(Extractocol, "analyze", no_analysis)
        [record] = run_sharded_batch(store.root, ["diode"], workers=1)
        assert record.status == "done" and record.cache_hit
        assert record.counters == {"lease_waits": 1}

    def test_holder_storing_between_probe_and_claim_is_a_cache_hit(
        self, tmp_path, monkeypatch
    ):
        """The holder stores its result and releases between this worker's
        probe and its claim, so the claim wins: the probe after it finds
        the envelope and nothing is analysed twice."""
        from repro.apk.loader import apk_digest
        from repro.core.extractocol import Extractocol
        from repro.service.jobs import resolve_target

        apk, config, _label = resolve_target("diode")
        report = Extractocol(config).analyze(apk)
        store = ResultStore(tmp_path / "s")
        claim = ResultStore.claim

        def lands_before_claim(self, name, **kwargs):
            if not store.entries():
                store.put(apk_digest(apk), config.cache_key(), report)
            return claim(self, name, **kwargs)

        def no_analysis(self, apk):
            raise AssertionError("the worker analysed a stored result")

        monkeypatch.setattr(ResultStore, "claim", lands_before_claim)
        monkeypatch.setattr(Extractocol, "analyze", no_analysis)
        [record] = run_sharded_batch(store.root, ["diode"], workers=1)
        assert record.status == "done" and record.cache_hit
        assert record.error is None  # no failed analysis retried into a hit
        assert record.attempts == analyses_run([record]) == 0
        assert not list(store.leases.glob("*.lease"))

    def test_daemon_job_whose_holder_stores_counts_one_hit(
        self, leased_diode, monkeypatch
    ):
        """A daemon job that waits out several polls for the holder's
        envelope ends a cache hit, and its store counts that one hit and
        no miss: the probes themselves count nothing."""
        from repro.apk.loader import apk_digest
        from repro.core.extractocol import Extractocol

        store, apk, config = leased_diode
        report = Extractocol(config).analyze(apk)
        claim = ResultStore.claim
        refused: list[str] = []

        def refused_then_lands(self, name, **kwargs):
            won = claim(self, name, **kwargs)
            if not won:
                refused.append(name)
                if len(refused) == 5:  # the holder stores after a while
                    store.put(apk_digest(apk), config.cache_key(), report)
            return won

        def no_analysis(apk, config):
            raise AssertionError("the waiting job analysed")

        monkeypatch.setattr(ResultStore, "claim", refused_then_lands)
        with JobScheduler(store, workers=1, analyzer=no_analysis) as sched:
            job = sched.submit(apk, config)
            assert job.wait(30)
        assert job.status is JobStatus.DONE and job.cache_hit
        assert len(refused) == 5
        assert (store.hits, store.misses) == (1, 0)

    def test_daemon_lease_wait_timeout_is_terminal(
        self, leased_diode, monkeypatch
    ):
        """A daemon job waits on another owner's lease like a batch worker
        does, and a holder that never stores fails it without a retry."""
        store, apk, config = leased_diode
        monkeypatch.setattr("repro.service.shard.LEASE_WAIT_SECONDS", 0.2)
        with JobScheduler(store, workers=1, retries=3, backoff=0.01) as sched:
            job = sched.submit(apk, config)
            assert job.wait(30)
        assert job.status is JobStatus.FAILED and job.attempts == 1
        assert job.error.startswith("LeaseWaitTimeout: ")
        assert "'owner': 'other-daemon'" in job.error
        assert sched.metrics.counter("analyses_run").value == 0


# ------------------------------------------------------- one store protocol
class TestOneStoreProtocol:
    """Daemon jobs take the result-key lease batch workers take, so a
    daemon and a batch, or two daemons, sharing one store run one analysis
    per key; a job whose result landed while it waited is a cache hit."""

    def test_daemon_job_and_batch_analyse_a_shared_target_once(
        self, tmp_path, monkeypatch
    ):
        from repro.core.extractocol import Extractocol

        store = ResultStore(tmp_path / "s")
        started, batch_claimed = threading.Event(), threading.Event()
        daemon_analyses: list[str] = []
        claim = ResultStore.claim

        def claim_seen(self, name, **kwargs):
            won = claim(self, name, **kwargs)
            if threading.current_thread().name == "batch":
                batch_claimed.set()
            return won

        def held_until_the_batch_claims(apk, config):
            daemon_analyses.append(apk.name)
            started.set()
            batch_claimed.wait(10)
            return Extractocol(config).analyze(apk)

        monkeypatch.setattr(ResultStore, "claim", claim_seen)
        records = []
        batch = threading.Thread(
            target=lambda: records.extend(
                run_sharded_batch(store.root, ["diode"], workers=1)
            ),
            name="batch",
        )
        with JobScheduler(store, workers=1,
                          analyzer=held_until_the_batch_claims) as sched:
            job = sched.submit_target("diode")
            assert started.wait(30)
            batch.start()
            batch.join(60)
            assert job.wait(30)
        [record] = records
        assert job.status is JobStatus.DONE and not job.cache_hit
        assert record.status == "done" and record.cache_hit
        assert len(daemon_analyses) + analyses_run(records) == 1

    def test_each_daemon_job_counts_one_store_outcome(self, tmp_path):
        """A fresh job counts one miss, however many times its attempt
        probes the store; the same job again is one hit."""
        store = ResultStore(tmp_path / "s")
        with JobScheduler(store, workers=1) as sched:
            fresh = sched.submit_target("diode")
            assert fresh.wait(60)
            assert (store.hits, store.misses) == (0, 1)
            warm = sched.submit_target("diode")
        assert fresh.status is JobStatus.DONE and not fresh.cache_hit
        assert warm.status is JobStatus.DONE and warm.cache_hit
        assert (store.hits, store.misses) == (1, 1)

    def test_two_schedulers_over_one_store_root_run_one_analysis(
        self, tmp_path, monkeypatch
    ):
        from repro.core.extractocol import Extractocol

        started, contender = threading.Event(), threading.Event()
        analyses: list[str] = []
        claims: list[bool] = []
        claim = ResultStore.claim

        def claim_counted(self, name, **kwargs):
            claims.append(claim(self, name, **kwargs))
            if len(claims) >= 2:
                contender.set()
            return claims[-1]

        def first(apk, config):
            analyses.append("first")
            started.set()
            contender.wait(10)  # until the second daemon has tried
            return Extractocol(config).analyze(apk)

        def second(apk, config):
            analyses.append("second")
            contender.set()
            return Extractocol(config).analyze(apk)

        monkeypatch.setattr(ResultStore, "claim", claim_counted)
        root = tmp_path / "s"
        with JobScheduler(ResultStore(root), workers=1,
                          analyzer=first) as one, \
                JobScheduler(ResultStore(root), workers=1,
                             analyzer=second) as two:
            job_one = one.submit_target("diode")
            assert started.wait(30)
            job_two = two.submit_target("diode")
            assert one.wait([job_one], 60) and two.wait([job_two], 60)
        assert analyses == ["first"]
        assert job_one.status is JobStatus.DONE and not job_one.cache_hit
        assert job_two.status is JobStatus.DONE and job_two.cache_hit
        assert job_two.result_key == job_one.result_key
        assert claims[0] and not any(claims[1:])  # the second waited


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


def backing_off(job) -> bool:
    """The job's first attempt failed and it waits out its backoff."""
    return job.error is not None and job.status is JobStatus.QUEUED


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
    # wait until the first attempt failed and the retry waits its backoff
    deadline = time.monotonic() + 10
    while not backing_off(flaky) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert backing_off(flaky)
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
    while not backing_off(flaky) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert backing_off(flaky)
    sched.shutdown(drain=False, timeout=30)
    assert flaky.status is JobStatus.CANCELLED


@pytest.mark.parametrize("exc, attempt, retries, delay", [
    (ValueError("boom"), 1, 2, 0.05),
    (ValueError("boom"), 2, 2, 0.1),  # the backoff doubles per attempt
    (ValueError("boom"), 3, 2, None),  # the retry budget is spent
    (ValueError("boom"), 1, 0, None),
    (JobTimeout("deadline"), 1, 3, None),
    (LeaseWaitTimeout("holder never stored"), 1, 3, None),
])
def test_retry_rule(exc, attempt, retries, delay):
    """A blown deadline and a lease-wait timeout are final; other
    failures wait ``backoff * 2**(attempt-1)`` until ``retries`` retries
    are spent."""
    assert retry_delay(exc, attempt, retries=retries, backoff=0.05) == delay


def test_batch_and_daemon_retry_by_the_one_rule(tmp_path, monkeypatch):
    """A failed batch attempt and a failed daemon attempt both ask
    ``retry_delay`` whether and when to retry, and both retry."""
    import repro.service.shard as shard
    from repro.core.extractocol import Extractocol

    asked = []
    rule = shard.retry_delay

    def spy(exc, attempt, **kw):
        asked.append((type(exc).__name__, attempt))
        return rule(exc, attempt, **kw)

    analyze, failed = Extractocol.analyze, set()

    def fails_once_per_app(self, apk, *args, **kwargs):
        if apk.name not in failed:
            failed.add(apk.name)
            raise ValueError("injected transient failure")
        return analyze(self, apk, *args, **kwargs)

    monkeypatch.setattr(shard, "retry_delay", spy)
    monkeypatch.setattr(Extractocol, "analyze", fails_once_per_app)
    [record] = run_sharded_batch(tmp_path / "batch", ["diode"], workers=1,
                                 retries=1, backoff=0.01)
    assert (record.status, record.attempts) == ("done", 2)
    assert record.counters["jobs_retried"] == 1
    with JobScheduler(ResultStore(tmp_path / "daemon"), workers=1,
                      retries=1, backoff=0.01) as sched:
        job = sched.submit_target("tzm")
        assert job.wait(30)
    assert (job.status, job.attempts) == (JobStatus.DONE, 2)
    assert asked == [("ValueError", 1), ("ValueError", 1)]


def test_shard_record_round_trips_through_queue_payload():
    record = ShardRecord(index=3, target="ted", worker=0, label="ted",
                         attempts=2, seconds=0.5)
    payload = json.loads(json.dumps(record.to_dict()))
    clone = ShardRecord(**payload)
    assert clone == record
