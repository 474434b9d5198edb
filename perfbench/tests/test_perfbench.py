"""The benchmark's own tests: output contract, correctness checks, per-layer
coverage and exact-repeat counts.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostclock
import layers
import workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: layer metrics each workload, and each batch variant, must move off zero
#: in its traced run
EXERCISED = {
    "corpus-analyze": {
        "cfg.callgraph_ms", "semantics.async_ms", "slicing.scan_ms",
        "slicing.slice_ms", "signature.run_ms", "deps.infer_ms",
        "deps.assemble_ms", "slicing.demarcation_points", "taint.stmts",
        "taint.worklist_iterations", "signature.methods_evaluated",
        "deps.transactions", "slicing.slice_fraction",
        "corpus-analyze.other_ms",
    },
    "release-reanalyze": {
        "cfg.callgraph_ms", "semantics.async_ms", "slicing.scan_ms",
        "slicing.reslice_ms", "signature.run_ms", "apk.digest_ms",
        "ir.fingerprint_ms", "incr.manifest_read_ms", "incr.plan_ms",
        "incr.manifest_write_ms", "slicing.demarcation_points",
        "incr.reused", "incr.reanalyzed", "incr.dirty_methods",
        "incr.reuse_fraction", "release-reanalyze.other_ms",
    },
    "synth-batch": {
        "synth.build_ms", "apk.digest_ms", "core.cache_key_ms",
        "corpus.registry_s", "store.get_ms", "store.put_ms",
        "store.lease_ms", "fleetindex.delta_ms", "core.analyze_ms",
        "obs.fleet_merge_s", "obs.ledger_append_ms",
        "obs.telemetry_overhead", "shard.overhead_s", "batch.analyses_run",
        "store.files_written", "store.bytes_written", "synth-batch.other_ms",
    },
    "synth-rebatch": {
        "synth.build_ms", "apk.digest_ms", "core.cache_key_ms",
        "corpus.registry_s", "store.get_ms", "store.lease_ms",
        "obs.fleet_merge_s", "obs.ledger_append_ms",
        "obs.telemetry_overhead", "shard.overhead_s", "batch.cache_hits",
        "store.files_written", "store.bytes_written",
        "synth-rebatch.other_ms",
    },
}

#: the listed workloads (each one's trace also runs a batch variant)
WORKLOAD_NAMES = sorted(w["name"] for w in SPEC["workloads"])

#: counts that must repeat exactly; work stealing depends on timing and
#: stored envelopes carry timings, so steals and bytes are left out
EXACT = sorted(
    name for name, m in PER_LAYER.items()
    if m["unit"] == "count" and name != "shard.work_steals"
) + ["slicing.slice_fraction", "incr.reuse_fraction"]


def run_bench(cwd: Path, name: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
         "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


def traced(name: str, work: Path, seed: int = 5) -> dict:
    bench = {**workload.WORKLOADS, **workload.BATCH_LAYERS}[name](seed, work)
    bench.setup()
    metrics, *outcomes = bench.traced(0.1)
    assert all(out.failed == 0 for out in outcomes)
    return metrics


# ---------------------------------------------------------- output contract
def test_every_end_to_end_metric_printed_with_unit_and_direction():
    out = run_bench(ROOT, "corpus-analyze", 0)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= workload.MIN_OPS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(
            line.split()[0] == m["name"] and line.split()[2] == m["unit"]
            and line.endswith(f"{m['better']} is better")
            for line in lines[:-1]
        ), m["name"]


def test_traced_run_emits_every_per_layer_metric():
    out = run_bench(ROOT, "release-reanalyze", 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER)
    for name, value in result["metrics"].items():
        assert value["unit"] == PER_LAYER[name]["unit"]


def test_refuses_to_run_without_the_program(work):
    shutil.copy(ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(work, "corpus-analyze", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_names_what_the_workloads_report():
    reported = set().union(*EXERCISED.values()) | {
        f"{name}.other_ms" for name in EXERCISED
    } | {"perf.index_ms", "deps.transactions", "shard.work_steals",
         "trace.attributed_fraction", "trace.p10_op_attributed",
         "trace.overhead"}
    assert reported == set(PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} == set(workload.WORKLOADS)
    # every batch variant's layers ride along in some workload's trace
    assert {cls.companion for cls in workload.WORKLOADS.values()} == set(
        workload.BATCH_LAYERS
    )


def test_every_traced_entry_point_exists():
    """A renamed entry point would silently drop out of the trace."""
    for functions, methods in (
        (layers.ANALYSIS_FUNCTIONS, layers.ANALYSIS_METHODS),
        layers.traced_chain_names(),
    ):
        assert len(layers.resolve(functions, methods)) == (
            len(functions) + len(methods)
        )


# ---------------------------------------------------------- correctness
def test_corrupted_corpus_report_is_a_failed_op(small, monkeypatch):
    bench = workload.CorpusAnalyze(1, small)
    bench.setup()
    original = bench.run_op

    def corrupting(key):
        report = original(key)
        if key == "diode":
            report.transactions.pop()
        return report

    monkeypatch.setattr(bench, "run_op", corrupting)
    out = bench.timed(0)
    assert out.passes == 1
    assert out.failed == 1
    assert out.attempted == len(bench.items)


def test_corrupted_release_report_is_a_failed_op(small):
    bench = workload.ReleaseReanalyze(2, small)
    bench.setup()
    bench.before_pass()
    results = [(label, bench.run_op(label)) for label in bench.pass_order()]
    assert bench.check_pass(results) == 0
    results[0][1].transactions.pop()
    assert bench.check_pass(results) == 1


def corrupt_first_envelope(bench, result: dict) -> None:
    key = result["output"]["jobs"][0]["result_key"]
    path = bench.store.path_for(key)
    envelope = json.loads(path.read_text())
    envelope["report"]["transactions"].append({})
    path.write_text(json.dumps(envelope))


def test_corrupted_cli_batch_report_is_a_failed_op(small):
    bench = workload.SynthBatch(4, small)
    bench.setup()
    bench.before_pass()
    _wall, result = bench.cli(bench.root, bench.pass_args())
    assert bench.check_batch(result) == 0
    corrupt_first_envelope(bench, result)
    assert bench.check_batch(result) == 1


def test_cli_rebatch_fails_on_an_analysis_or_a_corrupted_report(small):
    bench = workload.SynthRebatch(4, small)
    bench.setup()
    _wall, result = bench.cli(bench.root, bench.pass_args())
    jobs = result["output"]["jobs"]
    assert bench.check_batch(result) == 0
    assert all(job["cache_hit"] for job in jobs)
    ran = json.loads(json.dumps(result))
    ran["output"]["analyses_run"] = 1
    assert bench.check_batch(ran) == len(jobs)
    corrupt_first_envelope(bench, result)
    assert bench.check_batch(result) == 1


# ---------------------------------------------------------- traced layers
@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_traced_layers_do_the_work(small, name):
    metrics = traced(name, small)
    assert set(metrics) <= set(PER_LAYER)
    idle = sorted(m for m in EXERCISED[name] if not metrics.get(m))
    assert not idle
    assert metrics["trace.attributed_fraction"] >= 0.9


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_counts_repeat_exactly(small, name):
    first = traced(name, small / "a")
    second = traced(name, small / "b")
    assert {m: first.get(m, 0) for m in EXACT} == {
        m: second.get(m, 0) for m in EXACT
    }


# ---------------------------------------------------------- reductions
def test_self_time_subtracts_children():
    spans = [
        ["op", 0.0, 10.0, None],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 6.0, 9.0, 0],
    ]
    reduction = layers.Reduction(spans)
    assert reduction.ops == 1
    assert reduction.self_s == {"a": 6.0, "b": 1.0}
    assert reduction.attributed_fraction == pytest.approx(0.7)
    assert reduction.other_ms == pytest.approx(3000.0)


def test_times_scale_to_the_reference_host():
    ref = hostclock.REFERENCE_S
    # an op measured while the probe ran twice as slow counts half
    assert hostclock.scale_each([0.2, 0.2], [2 * ref, 2 * ref]) == [
        pytest.approx(0.1), pytest.approx(0.1),
    ]
    # one slow probe among its neighbours does not skew its op
    scaled = hostclock.scale_each([0.1] * 5, [ref, ref, 9 * ref, ref, ref])
    assert scaled == [pytest.approx(0.1)] * 5
