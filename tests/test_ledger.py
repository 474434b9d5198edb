"""Run-ledger tests: append-only JSONL semantics, schema-version
tolerance, batch aggregation (latency percentiles, per-phase histograms,
structured failures), and the CLI surfaces (`repro runs list/show`)."""

from __future__ import annotations

import json

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunRecord,
    new_run_id,
    render_run,
    render_runs_table,
)


def _batch_record(run_id="abc123def456", **kwargs):
    records = [
        {"target": "a", "status": "done", "cache_hit": False,
         "seconds": 0.1, "phase_seconds": {"slicing": 0.05, "setup": 0.01},
         "counters": {"analyses_run": 1}},
        {"target": "b", "status": "done", "cache_hit": True, "seconds": 0.001},
        {"target": "c", "status": "failed", "cache_hit": False,
         "seconds": 0.2, "error": "ValueError: boom",
         "error_type": "ValueError", "error_message": "boom",
         "traceback": "Traceback ...\nValueError: boom"},
    ]
    defaults = dict(
        run_id=run_id,
        label="synth:transports*3",
        records=records,
        started_unix=1_700_000_000.0,
        wall_s=0.5,
        executor="process",
        workers=2,
    )
    defaults.update(kwargs)
    return RunRecord.from_batch(**defaults)


class TestRunRecord:
    def test_from_batch_tallies(self):
        record = _batch_record()
        assert record.kind == "batch"
        assert record.targets == 3
        assert record.done == 2
        assert record.failed == 1
        assert record.cache_hits == 1
        assert record.analyses_run == 1  # the records' counters
        assert record.apps_per_sec == pytest.approx(6.0)
        # exact nearest-rank percentiles over [0.001, 0.1, 0.2]
        assert record.p50_s == pytest.approx(0.1)
        assert record.p99_s == pytest.approx(0.2)

    def test_from_batch_phase_histograms(self):
        record = _batch_record()
        assert set(record.phase_seconds) == {"slicing", "setup"}
        assert record.phase_seconds["slicing"]["count"] == 1
        assert record.phase_seconds["slicing"]["sum"] == pytest.approx(0.05)

    def test_from_batch_structured_failures(self):
        record = _batch_record()
        assert len(record.failures) == 1
        failure = record.failures[0]
        assert failure["target"] == "c"
        assert failure["error_type"] == "ValueError"
        assert failure["error_message"] == "boom"
        assert "Traceback" in failure["traceback"]

    def test_to_dict_carries_schema_and_host(self):
        data = _batch_record().to_dict()
        assert data["schema"] == LEDGER_SCHEMA_VERSION
        assert data["host"]["usable_cpus"] >= 1

    def test_new_run_id_is_fresh(self):
        assert new_run_id() != new_run_id()


class TestRunLedger:
    def test_append_and_read_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_batch_record("run-one-0001"))
        ledger.append(_batch_record("run-two-0002"))
        records = ledger.records()
        assert [r["run_id"] for r in records] == [
            "run-one-0001", "run-two-0002"
        ]
        assert ledger.path == tmp_path / "runs" / "ledger.jsonl"

    def test_records_skip_corrupt_and_future_schema_lines(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_batch_record("keep-me-00001"))
        with open(ledger.path, "a") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({
                "schema": LEDGER_SCHEMA_VERSION + 1, "run_id": "future"
            }) + "\n")
            for schema in (None, "x", [1]):
                fh.write(json.dumps({
                    "schema": schema, "run_id": f"bad-{schema}"
                }) + "\n")
        assert [r["run_id"] for r in ledger.records()] == ["keep-me-00001"]

    def test_get_exact_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_batch_record("aabbccddeeff"))
        ledger.append(_batch_record("aabb00112233"))
        assert ledger.get("aabbccddeeff")["run_id"] == "aabbccddeeff"
        assert ledger.get("aabbcc")["run_id"] == "aabbccddeeff"
        assert ledger.get("aabb") is None  # ambiguous prefix
        assert ledger.get("zzz") is None

    def test_tail(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i in range(5):
            ledger.append(_batch_record(f"run-{i:08d}xxxx"))
        assert [r["run_id"] for r in ledger.tail(2)] == [
            "run-00000003xxxx", "run-00000004xxxx"
        ]

    def test_missing_file_is_empty(self, tmp_path):
        assert RunLedger(tmp_path / "nowhere").records() == []


class TestRendering:
    def test_table_lists_newest_first(self, tmp_path):
        first = _batch_record("first0000000").to_dict()
        second = _batch_record("second000000").to_dict()
        table = render_runs_table([first, second])
        assert table.index("second000000") < table.index("first0000000")
        assert "synth:transports*3" in table

    def test_show_explains_failures(self):
        text = render_run(_batch_record().to_dict())
        assert "c: ValueError: boom" in text
        assert "| ValueError: boom" in text  # traceback lines indented
        assert "p50=0.1000s" in text
        assert "slicing" in text

    def test_show_includes_warnings_and_telemetry(self):
        record = _batch_record(
            telemetry_dir="/tmp/t/run", fleet_trace="/tmp/t/run/fleet.jsonl",
        ).to_dict()
        assert record["warnings"] == []
        # older records may carry warnings; they still render
        record["warnings"] = ["process executor unavailable (no fork)"]
        text = render_run(record)
        assert "warning   process executor unavailable" in text
        assert "telemetry /tmp/t/run" in text
        assert "trace     /tmp/t/run/fleet.jsonl" in text


class TestCli:
    def test_runs_list_and_show(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path)
        ledger.append(_batch_record("cli0run00001"))
        assert main(["runs", "list", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli0run00001" in out
        assert main(["runs", "show", "cli0run", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ValueError: boom" in out

    def test_runs_show_json(self, tmp_path, capsys):
        from repro.cli import main

        RunLedger(tmp_path).append(_batch_record("json0run0001"))
        assert main([
            "runs", "show", "json0run0001", "--store", str(tmp_path), "--json"
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["run_id"] == "json0run0001"
        assert data["failed"] == 1

    @pytest.mark.parametrize("line", [
        {"schema": 1, "run_id": "abc", "wall_s": "x"},
        {"schema": 1, "run_id": "abd", "started_unix": "x"},
        {"schema": 1, "run_id": "abe", "p50_s": None, "p99_s": [1],
         "apps_per_sec": {}, "started_unix": 1e300},
    ], ids=["wall_s", "started_unix", "the rest"])
    def test_runs_list_and_show_print_a_non_number_as_a_question_mark(
        self, tmp_path, capsys, line
    ):
        from repro.cli import main

        ledger = RunLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True)
        ledger.path.write_text(json.dumps(line) + "\n")
        assert main(["runs", "list", "--store", str(tmp_path)]) == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.startswith(line["run_id"]) and "?" in row
        assert main([
            "runs", "show", line["run_id"], "--store", str(tmp_path)
        ]) == 0
        out = capsys.readouterr().out
        for key, shown in (
            ("started_unix", "when      ?"),
            ("wall_s", "wall      ?s"),
            ("apps_per_sec", "(? apps/s)"),
            ("p50_s", "p50=?s"),
            ("p99_s", "p99=?s"),
        ):
            assert (shown in out) == (key in line), (key, out)

    def test_runs_show_unknown_exits(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["runs", "show", "nope", "--store", str(tmp_path)])

    def test_batch_records_a_run(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        code = main([
            "batch", "diode", "ted", "--store", str(store), "--workers", "4",
        ])
        assert code == 0
        records = RunLedger(store).records()
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "batch"
        assert record["label"] == "diode ted"
        assert record["targets"] == 2
        assert record["failed"] == 0
        assert record["telemetry_dir"] is not None
        # the worker count that ran (clamped to two targets), not the ask
        assert record["workers"] == 2
        assert record["executor"] == "process"
        assert record["warnings"] == []

        assert main(["batch", "tzm", "--store", str(store),
                     "--workers", "4"]) == 0
        record = RunLedger(store).records()[-1]
        assert record["workers"] == 1
        assert record["executor"] == "serial"  # ran in-process

    def test_ledger_counts_the_analyses_the_records_count(
        self, tmp_path, capsys, monkeypatch
    ):
        """A failed ``put`` is retried by re-running the analysis.  The
        records then count two analyses, and the ledger entry derived from
        them says the same."""
        from repro.cli import main
        from repro.service import ResultStore

        put = ResultStore.put
        failed: list[bool] = []

        def put_fails_once(self, *args, **kwargs):
            if not failed:
                failed.append(True)
                raise OSError("injected put failure")
            return put(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "put", put_fails_once)
        store = tmp_path / "store"
        assert main(["batch", "diode", "--store", str(store), "--workers",
                     "1", "--no-telemetry", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [job["attempts"] for job in data["jobs"]] == [2]
        assert data["analyses_run"] == 2
        assert RunLedger(store).records()[-1]["analyses_run"] == 2

    def test_analyze_ledger_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "analyze", "ted", "--ledger", str(tmp_path), "--json"
        ]) == 0
        records = RunLedger(tmp_path).records()
        assert len(records) == 1
        assert records[0]["kind"] == "analyze"
        assert records[0]["label"] == "ted"
        assert records[0]["phase_seconds"]  # phases recorded
        assert records[0]["analyses_run"] == 1


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
