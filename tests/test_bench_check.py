"""Bench regression-gate tests: structural shape detection, metric
extraction with better-directions, threshold semantics (the acceptance
case — an injected >=25% latency regression must fail), host-fingerprint
warnings including the legacy-meta fallback, and the CLI exit codes."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs.benchcheck import (
    bench_fingerprint,
    bench_kind,
    candidate_from_run,
    compare_benches,
    extract_metrics,
    load_bench,
    render_check,
)
from repro.obs.fleet import host_fingerprint

BATCH = {
    "meta": {"host": host_fingerprint(), "targets": ["diode", "ted"]},
    "by_workers": {
        "1": {"wall_s": 10.0, "apps_per_sec": 3.4, "p50_s": 0.25,
              "p99_s": 0.5, "work_steals": 0, "analyses_run": 34},
        "2": {"wall_s": 6.0, "apps_per_sec": 5.6, "p50_s": 0.26,
              "p99_s": 0.55, "work_steals": 3, "analyses_run": 34},
    },
}

CORPUS = {
    "meta": {"host": host_fingerprint()},
    "by_size": {
        "100": {"corpus": "synth:all*100@7", "gen_apps_per_sec": 200.0,
                "apps_per_sec": 12.0, "p50_ms": 40.0, "p99_ms": 90.0},
    },
}

SEARCH = {
    "meta": {"host": host_fingerprint(), "spec": "synth:all*500@7",
             "queries": {"host": "host:api.example.test"}, "repeats": 200},
    "by_query": {
        "host": {"query": "host:api.example.test", "hits": 6,
                 "p50_ms": 0.01, "p99_ms": 0.03, "qps": 100000.0},
        "like": {"query": "like:abcd1234/0", "hits": 280,
                 "p50_ms": 3.5, "p99_ms": 5.2, "qps": 280.0},
    },
}


class TestShapes:
    def test_bench_kind(self):
        assert bench_kind(BATCH) == "batch_scale"
        assert bench_kind(CORPUS) == "corpus_scale"
        # the retired two-engine pipeline shape is not a bench any more
        assert bench_kind({"apps": {}, "aggregate": {"speedup": 2.0}}) is None
        assert bench_kind(SEARCH) == "search"
        assert bench_kind({"nope": 1}) is None

    def test_extract_search_metrics(self):
        metrics = extract_metrics(SEARCH)
        assert metrics["by_query.host.p50_ms"] == (0.01, "lower")
        assert metrics["by_query.like.qps"] == (280.0, "higher")
        # hits is a workload property, not a performance metric
        assert "by_query.host.hits" not in metrics

    def test_search_latency_regression_fails(self):
        worse = copy.deepcopy(SEARCH)
        worse["by_query"]["like"]["p99_ms"] = 5.2 * 1.5
        result = compare_benches(SEARCH, worse)
        assert not result.ok
        assert [c.metric for c in result.regressions] == [
            "by_query.like.p99_ms"
        ]

    def test_extract_batch_metrics(self):
        metrics = extract_metrics(BATCH)
        assert metrics["by_workers.1.apps_per_sec"] == (3.4, "higher")
        assert metrics["by_workers.2.p99_s"] == (0.55, "lower")
        # wall_s has no better-direction (load-dependent); not extracted
        assert "by_workers.1.wall_s" not in metrics

    def test_extract_corpus_metrics(self):
        metrics = extract_metrics(CORPUS)
        assert metrics["by_size.100.gen_apps_per_sec"] == (200.0, "higher")
        assert metrics["by_size.100.p50_ms"] == (40.0, "lower")

    def test_load_bench_rejects_unknown_shape(self, tmp_path):
        good = tmp_path / "ok.json"
        good.write_text(json.dumps(BATCH))
        assert bench_kind(load_bench(good)) == "batch_scale"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError):
            load_bench(bad)


class TestCompare:
    def test_self_compare_is_clean(self):
        result = compare_benches(BATCH, copy.deepcopy(BATCH))
        assert result.ok
        assert result.kind == "batch_scale"
        assert len(result.checks) == 6  # 2 rows x 3 gated metrics
        assert result.fingerprint_warnings == []

    def test_injected_latency_regression_fails(self):
        # The acceptance case: latency inflated by >=25% must regress.
        candidate = copy.deepcopy(BATCH)
        for row in candidate["by_workers"].values():
            row["p50_s"] = round(row["p50_s"] * 1.35, 4)
            row["p99_s"] = round(row["p99_s"] * 1.35, 4)
        result = compare_benches(BATCH, candidate)
        assert not result.ok
        regressed = {c.metric for c in result.regressions}
        assert regressed == {
            "by_workers.1.p50_s", "by_workers.1.p99_s",
            "by_workers.2.p50_s", "by_workers.2.p99_s",
        }

    def test_latency_within_threshold_passes(self):
        candidate = copy.deepcopy(BATCH)
        for row in candidate["by_workers"].values():
            row["p50_s"] = round(row["p50_s"] * 1.2, 4)
        assert compare_benches(BATCH, candidate).ok

    def test_throughput_drop_fails(self):
        candidate = copy.deepcopy(BATCH)
        candidate["by_workers"]["2"]["apps_per_sec"] = 5.6 * 0.6
        result = compare_benches(BATCH, candidate)
        assert [c.metric for c in result.regressions] == [
            "by_workers.2.apps_per_sec"
        ]

    def test_throughput_improvement_never_regresses(self):
        candidate = copy.deepcopy(BATCH)
        candidate["by_workers"]["1"]["apps_per_sec"] = 340.0
        candidate["by_workers"]["1"]["p50_s"] = 0.0001
        assert compare_benches(BATCH, candidate).ok

    def test_custom_threshold(self):
        candidate = copy.deepcopy(BATCH)
        candidate["by_workers"]["1"]["p50_s"] = 0.25 * 1.1
        assert compare_benches(BATCH, candidate, threshold=0.25).ok
        assert not compare_benches(BATCH, candidate, threshold=0.05).ok

    def test_metric_intersection_only(self):
        # A candidate with just one worker row compares only that row.
        candidate = {
            "meta": {"host": host_fingerprint()},
            "by_workers": {"2": dict(BATCH["by_workers"]["2"])},
        }
        result = compare_benches(BATCH, candidate)
        assert {c.metric.split(".")[1] for c in result.checks} == {"2"}


class TestFingerprints:
    def test_mismatch_warns_loudly(self):
        candidate = copy.deepcopy(BATCH)
        candidate["meta"]["host"] = dict(
            host_fingerprint(), usable_cpus=64, python="3.99.0"
        )
        result = compare_benches(BATCH, candidate)
        assert len(result.fingerprint_warnings) == 2
        text = render_check(result)
        assert "!! HOST FINGERPRINT MISMATCH" in text
        assert "usable_cpus" in text

    def test_legacy_meta_fallback(self):
        legacy = {
            "meta": {"python": "3.11.7", "platform": "Linux-old",
                     "cpu_count": 1, "usable_cpus": 1},
            "by_workers": {"1": {"apps_per_sec": 3.0}},
        }
        fp = bench_fingerprint(legacy)
        assert fp["python"] == "3.11.7"
        assert "machine" not in fp  # legacy meta never had it
        # the missing key must not count as a mismatch
        result = compare_benches(legacy, copy.deepcopy(legacy))
        assert result.fingerprint_warnings == []

    def test_no_meta_at_all(self):
        bare = {"by_workers": {"1": {"apps_per_sec": 3.0}}}
        assert bench_fingerprint(bare) == {}
        assert compare_benches(bare, bare).fingerprint_warnings == []


class TestCandidateFromRun:
    def test_ledger_record_becomes_batch_shape(self):
        record = {
            "run_id": "abc123", "workers": 2, "host": host_fingerprint(),
            "wall_s": 5.0, "apps_per_sec": 4.0, "p50_s": 0.3, "p99_s": 0.6,
            "work_steals": 1, "analyses_run": 20,
        }
        candidate = candidate_from_run(record)
        assert bench_kind(candidate) == "batch_scale"
        assert candidate["by_workers"]["2"]["apps_per_sec"] == 4.0
        assert candidate["meta"]["source"] == "run-ledger:abc123"
        # comparable against the baseline's matching worker row
        result = compare_benches(BATCH, candidate)
        assert {c.metric.split(".")[1] for c in result.checks} == {"2"}


class TestCli:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_candidate_file_pass_and_fail(self, tmp_path, capsys):
        from repro.cli import main

        baseline = self._write(tmp_path, "BENCH_batch_scale.json", BATCH)
        good = self._write(tmp_path, "cand_ok.json", BATCH)
        assert main(["bench", "check", baseline, "--candidate", good]) == 0
        capsys.readouterr()

        slow = copy.deepcopy(BATCH)
        for row in slow["by_workers"].values():
            row["p50_s"] *= 1.5
            row["p99_s"] *= 1.5
        bad = self._write(tmp_path, "cand_bad.json", slow)
        assert main(["bench", "check", baseline, "--candidate", bad]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_warn_only_downgrades_exit(self, tmp_path, capsys):
        from repro.cli import main

        baseline = self._write(tmp_path, "base.json", BATCH)
        slow = copy.deepcopy(BATCH)
        for row in slow["by_workers"].values():
            row["p99_s"] *= 2.0
        bad = self._write(tmp_path, "cand.json", slow)
        assert main([
            "bench", "check", baseline, "--candidate", bad, "--warn-only"
        ]) == 0
        assert "WARN-ONLY" in capsys.readouterr().err

    def test_run_ledger_candidate(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.ledger import RunLedger, RunRecord

        record = RunRecord.from_batch(
            run_id="ledger0cand1",
            label="x",
            records=[{"target": "a", "status": "done", "cache_hit": False,
                      "seconds": 0.25}],
            started_unix=0.0,
            wall_s=0.294,  # ~3.4 apps/s for 1 target: matches baseline row 1
            workers=1,
        )
        RunLedger(tmp_path).append(record)
        baseline = self._write(tmp_path, "base.json", BATCH)
        code = main([
            "bench", "check", baseline,
            "--run", "ledger0cand1", "--store", str(tmp_path), "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert data["results"][0]["kind"] == "batch_scale"
        assert code in (0, 1)  # verdict depends on synthetic numbers

    def test_json_output_shape(self, tmp_path, capsys):
        from repro.cli import main

        baseline = self._write(tmp_path, "base.json", BATCH)
        cand = self._write(tmp_path, "cand.json", BATCH)
        assert main([
            "bench", "check", baseline, "--candidate", cand, "--json"
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        result = data["results"][0]
        assert result["ok"] is True
        assert {c["metric"] for c in result["checks"]} >= {
            "by_workers.1.apps_per_sec"
        }


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
