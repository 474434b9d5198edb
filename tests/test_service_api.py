"""End-to-end HTTP service tests: start the server, submit concurrent
jobs, and verify dedup, cached re-submission (byte-identical to a fresh
run), metrics, health and bundle upload."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
import zipfile

import pytest

from repro import Extractocol
from repro.core.report import report_to_dict
from repro.service import resolve_target
from repro.service.api import AnalysisService
from repro.service.store import canonical_json


@pytest.fixture()
def service(tmp_path):
    svc = AnalysisService(tmp_path / "store", port=0, workers=4).start()
    yield svc
    svc.stop()


def _request(svc, method, path, body=None, headers=None):
    req = urllib.request.Request(
        svc.url + path, data=body, method=method,
        headers=headers or ({"Content-Type": "application/json"} if body else {}),
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(svc, path):
    return _request(svc, "GET", path)


def post(svc, path, payload):
    return _request(svc, "POST", path, json.dumps(payload).encode())


def wait_done(svc, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, data = get(svc, f"/jobs/{job_id}")
        assert status == 200
        if data["job"]["status"] in ("done", "failed", "cancelled"):
            return data["job"]
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


class TestAnalyzeLifecycle:
    def test_submit_poll_fetch_report(self, service):
        status, data = post(service, "/analyze", {"target": "diode"})
        assert status == 202
        job = wait_done(service, data["job"]["id"])
        assert job["status"] == "done" and not job["cache_hit"]

        status, envelope = get(service, f"/report/{job['result_key']}")
        assert status == 200
        apk, config, _ = resolve_target("diode")
        fresh = Extractocol(config).analyze(apk)
        # the cached report is byte-identical to a fresh analysis
        assert canonical_json(envelope["report"]) == canonical_json(
            report_to_dict(fresh)
        )

    def test_cached_resubmission_served_without_reanalysis(self, service):
        _, data = post(service, "/analyze", {"target": "tzm"})
        wait_done(service, data["job"]["id"])
        status, data = post(service, "/analyze", {"target": "tzm"})
        assert status == 200  # answered synchronously from the store
        assert data["job"]["cache_hit"] and data["job"]["status"] == "done"
        _, metrics = get(service, "/metrics")
        assert metrics["counters"]["analyses_run"] == 1

    def test_lineage_label_target(self, service):
        """``POST /analyze`` takes ``app@vN`` as ``repro analyze`` does;
        a label that names no version is a 404."""
        from repro.corpus import build_version

        status, data = post(service, "/analyze", {"target": "reddinator@v2"})
        assert status == 202
        job = wait_done(service, data["job"]["id"])
        assert (job["status"], job["label"]) == ("done", "reddinator@v2")
        _, envelope = get(service, f"/report/{job['result_key']}")
        built = build_version("reddinator@v2")
        assert canonical_json(envelope["report"]) == canonical_json(
            report_to_dict(Extractocol(built.config).analyze(built.apk))
        )
        assert post(service, "/analyze",
                    {"target": "reddinator@v9"})[0] == 404

    def test_config_overrides_shard_results(self, service):
        _, a = post(service, "/analyze", {"target": "wallabag"})
        _, b = post(service, "/analyze",
                    {"target": "wallabag", "config": {"rounds": 1}})
        ja = wait_done(service, a["job"]["id"])
        jb = wait_done(service, b["job"]["id"])
        assert ja["config_key"] != jb["config_key"]
        assert ja["apk_digest"] == jb["apk_digest"]

    def test_concurrent_posts_trigger_exactly_one_analysis(self, tmp_path):
        def slow_analyzer(apk, config):
            time.sleep(0.5)  # hold the job in-flight while posts race in
            return Extractocol(config).analyze(apk)

        svc = AnalysisService(
            tmp_path / "store", port=0, workers=4, analyzer=slow_analyzer
        ).start()
        try:
            results = []

            def submit():
                results.append(
                    post(svc, "/analyze", {"target": "radioreddit"})
                )

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            ids = {data["job"]["id"] for _, data in results}
            assert len(ids) == 1, f"expected one deduplicated job, got {ids}"
            wait_done(svc, ids.pop())
            _, metrics = get(svc, "/metrics")
            assert metrics["counters"]["analyses_run"] == 1
            assert metrics["counters"]["jobs_deduplicated"] == 7
        finally:
            svc.stop()

    def test_upload_sapk_bundle(self, service, tmp_path):
        from repro.apk.loader import save_apk
        from repro.corpus import build_app

        path = save_apk(build_app("blippex"), tmp_path / "b.zip")
        status, data = _request(
            service, "POST", "/analyze", path.read_bytes(),
            headers={
                "Content-Type": "application/zip",
                # match the corpus default for open-source apps so the
                # upload and the corpus key land on the same cache entry
                "X-Repro-Config": json.dumps({"async_heuristic": False}),
            },
        )
        assert status == 202
        job = wait_done(service, data["job"]["id"])
        assert job["status"] == "done"
        # same content + same semantic config ⇒ same cache entry
        status, data = post(service, "/analyze", {"target": "blippex"})
        assert status == 200 and data["job"]["cache_hit"]


class TestOperationalEndpoints:
    def test_healthz_and_jobs_listing(self, service):
        status, health = get(service, "/healthz")
        assert status == 200 and health["status"] == "ok"
        _, data = post(service, "/analyze", {"target": "diode"})
        wait_done(service, data["job"]["id"])
        status, listing = get(service, "/jobs")
        assert status == 200 and len(listing["jobs"]) == 1

    def test_metrics_shape(self, service):
        _, data = post(service, "/analyze", {"target": "diode"})
        wait_done(service, data["job"]["id"])
        _, metrics = get(service, "/metrics")
        assert {"counters", "gauges", "histograms", "store"} <= metrics.keys()
        assert metrics["counters"]["jobs_done"] == 1
        assert metrics["gauges"]["queue_depth"] == 0
        assert metrics["histograms"]["analyze_seconds"]["count"] == 1
        assert metrics["store"]["writes"] == 1

    def test_error_paths(self, service):
        assert post(service, "/analyze", {"target": "not-an-app"})[0] == 404
        assert post(service, "/analyze", {})[0] == 400
        assert post(service, "/analyze",
                    {"target": "diode", "config": {"bogus": 1}})[0] == 400
        assert get(service, "/jobs/j99999")[0] == 404
        assert get(service, "/report/deadbeef")[0] == 404
        assert get(service, "/nope")[0] == 404
        status, _ = _request(service, "POST", "/analyze", b"not json",
                             headers={"Content-Type": "application/json"})
        assert status == 400

    def test_malformed_upload_is_a_bad_request(self, service, tmp_path):
        zipped = {"Content-Type": "application/zip"}
        status, data = _request(service, "POST", "/analyze", b"not a zip",
                                headers=zipped)
        assert status == 400 and "zip" in data["error"]
        partial = tmp_path / "partial.zip"
        with zipfile.ZipFile(partial, "w") as zf:
            zf.writestr("manifest.json", '{"package": "com.a"}')
        status, data = _request(service, "POST", "/analyze",
                                partial.read_bytes(), headers=zipped)
        assert status == 400 and "resources.json" in data["error"]

    def test_unknown_mode_is_a_bad_request_cold_and_warm(self, service):
        bad = {"target": "diode", "config": {"mode": "bogus"}}
        status, data = post(service, "/analyze", bad)  # cold store
        assert status == 400 and "mode" in data["error"]
        _, data = post(service, "/analyze", {"target": "diode"})
        wait_done(service, data["job"]["id"])
        status, data = post(service, "/analyze", bad)  # report now cached
        assert status == 400 and "mode" in data["error"]


class TestFleetTelemetryEndpoints:
    def _get_text(self, svc, path):
        with urllib.request.urlopen(svc.url + path, timeout=30) as resp:
            return resp.status, resp.read().decode()

    def test_status_shape(self, service):
        _, data = post(service, "/analyze", {"target": "diode"})
        wait_done(service, data["job"]["id"])
        status, body = get(service, "/status")
        assert status == 200
        assert body["status"] == "ok"
        assert body["run_id"] == service.run_id
        assert body["uptime_s"] >= 0
        assert body["jobs"]["total"] == 1
        assert body["jobs"]["done"] == 1
        workers = body["workers"]
        assert len(workers) == 4
        assert all(w["alive"] for w in workers)
        assert "recent_runs" in body

    def test_status_lists_recent_ledger_runs(self, service):
        from repro.obs.ledger import RunLedger, RunRecord

        record = RunRecord.from_batch(
            run_id="recent0run01", label="synth:transports*2",
            records=[{"target": "a", "status": "done", "cache_hit": False,
                      "seconds": 0.1}],
            started_unix=0.0, wall_s=0.1,
        )
        RunLedger(service.store.root).append(record)
        _, body = get(service, "/status")
        runs = {r["run_id"] for r in body["recent_runs"]}
        assert "recent0run01" in runs

    def test_prometheus_exposes_worker_liveness_and_phases(self, service):
        _, data = post(service, "/analyze", {"target": "diode"})
        wait_done(service, data["job"]["id"])
        status, text = self._get_text(service, "/metrics?format=prometheus")
        assert status == 200
        lines = text.splitlines()
        up = [l for l in lines if l.startswith("repro_worker_up{")]
        assert len(up) == 4
        assert all(l.endswith(" 1") for l in up)
        # per-phase histograms folded by the scheduler worker
        phases = [
            l for l in lines
            if l.startswith("repro_phase_seconds_count{")
        ]
        assert any('phase="slicing"' in l for l in phases)
        # and the per-family app latency histogram
        assert any(
            l.startswith("repro_app_seconds_count{") and 'family="corpus"' in l
            for l in lines
        )

    def test_stop_writes_serve_ledger_record(self, tmp_path):
        from repro.obs.ledger import RunLedger

        svc = AnalysisService(tmp_path / "store", port=0, workers=2).start()
        try:
            _, data = post(svc, "/analyze", {"target": "tzm"})
            wait_done(svc, data["job"]["id"])
        finally:
            svc.stop()
        records = RunLedger(tmp_path / "store").records()
        serve = [r for r in records if r["kind"] == "serve"]
        assert len(serve) == 1
        assert serve[0]["run_id"] == svc.run_id
        assert serve[0]["targets"] == 1
        assert serve[0]["done"] == 1
        assert serve[0]["failed"] == 0


class TestReportsAndDiff:
    def _store_one(self, service, target):
        _, data = post(service, "/analyze", {"target": target})
        return wait_done(service, data["job"]["id"])["result_key"]

    def test_reports_listing(self, service):
        status, data = get(service, "/reports")
        assert status == 200 and data["reports"] == []
        key_tzm = self._store_one(service, "tzm")
        key_diode = self._store_one(service, "diode")
        status, data = get(service, "/reports")
        assert status == 200
        assert {e["key"] for e in data["reports"]} == {key_tzm, key_diode}
        for entry in data["reports"]:
            assert {"key", "app", "apk_digest", "config_key", "schema",
                    "transactions", "stored_at"} <= entry.keys()
            assert "report" not in entry

    def test_diff_endpoint_computes_then_caches(self, service):
        key = self._store_one(service, "tzm")
        status, data = get(service, f"/diff/{key}/{key}")
        assert status == 200
        assert data["cached"] is False
        assert data["diff"]["verdict"] == "identical"
        assert data["diff"]["breaking"] is False

        status, again = get(service, f"/diff/{key}/{key}")
        assert status == 200 and again["cached"] is True
        assert again["diff"] == data["diff"]
        _, metrics = get(service, "/metrics")
        assert metrics["counters"]["diffs_computed"] == 1
        assert metrics["counters"]["diffs_cached"] == 1
        # the diff cache entry never shows up as a report
        _, listing = get(service, "/reports")
        assert [e["key"] for e in listing["reports"]] == [key]

    def test_diff_error_paths(self, service):
        key = self._store_one(service, "tzm")
        assert get(service, f"/diff/{key}/missing")[0] == 404
        assert get(service, "/diff/onlyone")[0] == 400
