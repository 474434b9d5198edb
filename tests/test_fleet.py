"""Fleet telemetry tests: cross-process trace aggregation (determinism,
span-set equality with the per-worker streams), host fingerprints, live
progress, and the shard engine's telemetry wiring."""

from __future__ import annotations

import hashlib
import io
import time

import pytest

from repro.obs.export import validate_jsonl
from repro.obs.fleet import (
    BatchProgress,
    WorkerTelemetry,
    family_of,
    host_fingerprint,
    merge_worker_traces,
    percentile,
    run_telemetry_dir,
)
from repro.obs.tracer import Span
from repro.service.shard import ShardRecord, run_sharded_batch

TARGETS = ["diode", "ted", "tzm", "kayak"]


# ------------------------------------------------------------ fingerprints
class TestHostFingerprint:
    def test_fields(self):
        fp = host_fingerprint()
        assert set(fp) == {
            "python", "platform", "machine", "cpu_count", "usable_cpus"
        }
        assert fp["usable_cpus"] >= 1

    def test_family_of(self):
        assert family_of("syn-transports-s7-0041") == "transports"
        assert family_of("syn-pag-s0-0000") == "pag"
        assert family_of("pinterest") == "corpus"
        assert family_of("") == "corpus"

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 3.0  # round(0.5*3)=2
        assert percentile([], 0.5) == 0.0


# ------------------------------------------------------------ trace merge
def _worker_stream(tmp_path, worker_id, jobs):
    """Write a worker trace with the given (index, name) job spans."""
    root = Span(f"worker-{worker_id}")
    for index, name in jobs:
        job = root.child(f"job:{name}")
        job.set("index", index)
        job.set("app_key", name)
        job.set("worker", worker_id)
        job.set("stolen", worker_id != index % 2)
        inner = job.child("analyze")
        inner.count("slices", index + 1)
    WorkerTelemetry(tmp_path, worker_id, "r").write_trace(root)


class TestMergeWorkerTraces:
    def test_merge_is_schedule_independent(self, tmp_path):
        # the same 4 jobs split two different ways across workers
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        _worker_stream(a, 0, [(0, "x"), (2, "y")])
        _worker_stream(a, 1, [(1, "z"), (3, "w")])
        _worker_stream(b, 0, [(0, "x"), (1, "z"), (2, "y"), (3, "w")])
        assert merge_worker_traces(a) == merge_worker_traces(b)

    def test_merged_span_set_is_union_of_workers(self, tmp_path):
        _worker_stream(tmp_path, 0, [(0, "x")])
        _worker_stream(tmp_path, 1, [(1, "y")])
        events = validate_jsonl(merge_worker_traces(tmp_path))
        assert events[0]["name"] == "fleet"
        assert events[0]["counters"] == {"jobs": 2}
        names = sorted(e["name"] for e in events[1:])
        assert names == ["analyze", "analyze", "job:x", "job:y"]
        # worker-level counters survive the merge
        analyze = [e for e in events if e["name"] == "analyze"]
        assert sorted(e["counters"]["slices"] for e in analyze) == [1, 2]

    def test_run_specific_attrs_stripped(self, tmp_path):
        _worker_stream(tmp_path, 0, [(0, "x")])
        events = validate_jsonl(merge_worker_traces(tmp_path))
        job = next(e for e in events if e["name"] == "job:x")
        assert "worker" not in job["attrs"]
        assert "stolen" not in job["attrs"]
        assert job["attrs"]["app_key"] == "x"
        assert job["attrs"]["index"] == 0

    def test_duplicate_job_names_deduped_deterministically(self, tmp_path):
        _worker_stream(tmp_path, 0, [(0, "x")])
        _worker_stream(tmp_path, 1, [(1, "x")])
        events = validate_jsonl(merge_worker_traces(tmp_path))
        names = sorted(
            e["name"] for e in events if e["parent"] == events[0]["id"]
        )
        assert names == ["job:x", "job:x#2"]
        # every span id is the hash of its rewritten path: all unique
        assert len({e["id"] for e in events}) == len(events)

    def test_ids_recomputed_from_paths(self, tmp_path):
        _worker_stream(tmp_path, 0, [(0, "x")])
        events = validate_jsonl(merge_worker_traces(tmp_path))
        for event in events:
            expected = hashlib.sha256(
                event["path"].encode()
            ).hexdigest()[:16]
            assert event["id"] == expected

    def test_merged_bytes_are_pinned(self, tmp_path):
        """Two workers, a duplicate job name, run-specific attrs at two
        depths and wall seconds in the streams: the merged bytes are part
        of the fleet-trace contract, so any merger must produce exactly
        these."""
        for worker_id, jobs in ((0, [(0, "x"), (2, "y")]),
                                (1, [(1, "x"), (3, "z")])):
            root = Span(f"worker-{worker_id}")
            root.set("run_id", "r")
            root.set("worker", worker_id)
            for index, name in jobs:
                job = root.child(f"job:{name}")
                job.set("index", index)
                job.set("app_key", name)
                job.set("run_id", "r")
                job.set("worker", worker_id)
                job.set("shard", index % 2)
                job.set("stolen", worker_id != index % 2)
                job.set("cache_hit", False)
                job.seconds = 0.25 * (index + 1)
                job.count("analyses_run")
                phase = job.child(f"analyze:{name}").child("phase:slicing")
                phase.set("pid", 100 + worker_id)
                phase.set("mode", "full")
                phase.seconds = 0.125
                phase.count("slices", index + 1)
            WorkerTelemetry(tmp_path, worker_id, "r").write_trace(root)
        merged = merge_worker_traces(tmp_path).encode()
        assert hashlib.sha256(merged).hexdigest() == (
            "8e9b2af7729af41ed32822253d0b45783cd6e4b66bfec4c15f0c3b70bb3764a6"
        )


# ------------------------------------------------------------- progress
class TestBatchProgress:
    def test_counts_and_renders(self):
        stream = io.StringIO()
        progress = BatchProgress(3, stream=stream, interval=0.0)
        for index, (status, cache_hit, seconds) in enumerate(
            [("done", True, 0.1), ("failed", False, 0.2), ("done", False, 0.3)]
        ):
            record = ShardRecord(index=index, target=f"t{index}", worker=0,
                                 status=status, cache_hit=cache_hit,
                                 seconds=seconds)
            progress(record, index + 1, 3)
        out = stream.getvalue()
        assert "[3/3]" in out
        assert "1 cached" in out
        assert "1 FAILED" in out
        assert "done" in out

    def test_straggler_flagging(self):
        """Stragglers come from the coordinator's map of which entry each
        worker holds and since when."""
        progress = BatchProgress(10, stream=io.StringIO())
        now = time.monotonic()
        for index, seconds in enumerate([0.01, 0.01, 0.02]):
            record = ShardRecord(index=index, target=f"t{index}", worker=0,
                                 seconds=seconds)
            progress(record, index + 1, 10, {
                2: ("slow-app", now - 120.0),
                3: ("quick-app", now),
            })
        stragglers = progress.stragglers()
        assert [s["worker"] for s in stragglers] == [2]
        assert stragglers[0]["in_flight"] == "slow-app"
        assert stragglers[0]["in_flight_s"] > 100
        assert "stragglers: w2:slow-app" in progress.render()
        # an entry handed back clears its worker's flag
        progress(ShardRecord(index=3, target="slow-app", worker=2), 4, 10, {})
        assert progress.stragglers() == []


# --------------------------------------------------- shard engine wiring
class TestShardedBatchTelemetry:
    def test_batch_writes_streams_heartbeats_and_fleet_trace(self, tmp_path):
        run_dir = run_telemetry_dir(tmp_path / "store", "run1", create=True)
        meta: dict = {}
        seen: list[tuple] = []
        records = run_sharded_batch(
            tmp_path / "store",
            TARGETS,
            workers=2,
            run_id="run1",
            telemetry_dir=run_dir,
            out_meta=meta,
            progress=lambda r, done, total, held: seen.append((done, total)),
        )
        assert [r.status for r in records] == ["done"] * len(TARGETS)
        assert meta["run_id"] == "run1"
        assert meta["fleet_trace"] is not None
        # progress fired once per entry with a running done-count
        assert [d for d, _ in seen] == list(range(1, len(TARGETS) + 1))
        assert all(t == len(TARGETS) for _, t in seen)
        # one validating stream per worker and the merged trace, no other
        # file (no heartbeats)
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "fleet.trace.jsonl", "worker-0.trace.jsonl", "worker-1.trace.jsonl"
        ]
        streams = sorted(run_dir.glob("worker-*.trace.jsonl"))
        worker_jobs = []
        for stream in streams:
            events = validate_jsonl(stream.read_text())
            worker_jobs.extend(
                e["name"] for e in events
                if e["name"].startswith("job:")
            )
        # the fleet trace's job set equals the union of per-worker jobs
        fleet = validate_jsonl((run_dir / "fleet.trace.jsonl").read_text())
        fleet_jobs = [e["name"] for e in fleet if e["name"].startswith("job:")]
        assert sorted(fleet_jobs) == sorted(worker_jobs)
        assert fleet_jobs == [f"job:{t}" for t in TARGETS]  # index order
        # analysis phases nest under each job span
        assert any(e["name"] == "phase:slicing" for e in fleet)

    def test_fleet_trace_deterministic_across_reruns_and_widths(
        self, tmp_path
    ):
        traces = []
        for i, workers in enumerate((2, 3, 2)):
            store = tmp_path / f"s{i}"
            run_dir = run_telemetry_dir(store, "r", create=True)
            run_sharded_batch(
                store, TARGETS, workers=workers,
                run_id="r", telemetry_dir=run_dir,
            )
            traces.append((run_dir / "fleet.trace.jsonl").read_text())
        assert traces[0] == traces[1] == traces[2]

    def test_no_telemetry_dir_means_no_files(self, tmp_path):
        records = run_sharded_batch(tmp_path / "store", ["diode"], workers=1)
        assert records[0].status == "done"
        assert not (tmp_path / "store" / "telemetry").exists()


# ------------------------------------------------ start-method precedence
class TestFallbackDedup:
    def test_sharded_batch_surfaces_worker_fallbacks_once(
        self, tmp_path, monkeypatch
    ):
        # an explicit start method beats the REPRO_START_METHOD override
        import multiprocessing

        methods: list[str] = []
        get_context = multiprocessing.get_context

        def spy(method=None):
            methods.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        records = run_sharded_batch(
            tmp_path / "store",
            ["diode", "ted"],
            workers=2,
            start_method="fork",
        )
        assert [r.status for r in records] == ["done", "done"]
        assert methods == ["fork"]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
