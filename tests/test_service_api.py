"""End-to-end HTTP service tests: start the server, submit concurrent
jobs, and verify dedup, cached re-submission (byte-identical to a fresh
run), metrics, health and bundle upload."""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import zipfile
from pathlib import Path

import pytest

import repro
from repro import Extractocol
from repro.core.report import report_to_dict
from repro.service.jobs import resolve_target
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
        status, b = post(service, "/analyze",
                         {"target": "wallabag", "config": {"rounds": 1}})
        assert status == 202
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

    def test_job_gauges_read_zero_after_no_drain_shutdown(self, tmp_path):
        """The ``queue_depth`` and ``running`` gauges are read off the job
        table, so cancelled jobs leave neither behind."""
        def slow(apk, config):
            time.sleep(0.3)
            return Extractocol(config).analyze(apk)

        svc = AnalysisService(tmp_path / "store", port=0, workers=1,
                              analyzer=slow).start()
        try:
            for target in ("diode", "tzm", "wallabag"):
                assert post(svc, "/analyze", {"target": target})[0] == 202
            svc.scheduler.shutdown(drain=False)
            _, metrics = get(svc, "/metrics")
            assert metrics["gauges"]["queue_depth"] == 0
            assert metrics["gauges"]["running"] == 0
            with urllib.request.urlopen(
                svc.url + "/metrics?format=prometheus", timeout=30
            ) as resp:
                lines = resp.read().decode().splitlines()
            assert "repro_queue_depth 0" in lines
            assert "repro_running 0" in lines
        finally:
            svc.stop()

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

    @pytest.mark.parametrize("target", [
        "syn-bogus", "syn-nofam-s7-0000", "nosuch@v2",
    ])
    def test_unknown_key_404_carries_the_message(self, service, target):
        """The registries' unknown-key errors are ``KeyError``s; the 404
        carries their message, not its repr in a second pair of quotes."""
        from repro.corpus.lineage import build_version

        with pytest.raises(KeyError) as info:
            (build_version if "@" in target else resolve_target)(target)
        body = json.dumps({"target": target}).encode()
        status, data = service.handle_analyze(body, "application/json", {})
        assert (status, data) == (404, {"error": info.value.args[0]})

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

    @pytest.mark.parametrize("overrides", [
        pytest.param({"rounds": "2"}, id="rounds-string"),
        pytest.param({"rounds": True}, id="rounds-bool"),
        pytest.param({"rounds": 0}, id="rounds-zero"),
        pytest.param({"lint_level": "bogus"}, id="lint-level-unknown"),
        pytest.param({"scope_prefixes": "com.kayak"}, id="prefixes-string"),
        pytest.param({"scope_prefixes": [1]}, id="prefixes-not-strings"),
        pytest.param({"async_heuristic": "false"}, id="bool-field-string"),
        pytest.param({"max_async_hops_override": -1}, id="hops-negative"),
        pytest.param({"record_provenance": True}, id="unknown-field"),
    ])
    def test_ill_typed_override_is_rejected_before_queueing(
        self, service, overrides
    ):
        _, before = get(service, "/status")
        status, data = post(service, "/analyze",
                            {"target": "wallabag", "config": overrides})
        assert status == 400 and next(iter(overrides)) in data["error"]
        _, after = get(service, "/status")
        assert after["jobs"]["total"] == before["jobs"]["total"]

    @pytest.mark.parametrize("body, needle", [
        pytest.param(b"[1, 2]", "object", id="body-array"),
        pytest.param(b'"diode"', "object", id="body-string"),
        pytest.param(b'{"target": 5}', "target", id="target-int"),
        pytest.param(b'{"target": ["diode"]}', "target", id="target-list"),
    ])
    def test_malformed_body_is_a_bad_request(self, service, body, needle):
        _, before = get(service, "/status")
        status, data = _request(service, "POST", "/analyze", body,
                                headers={"Content-Type": "application/json"})
        assert status == 400 and needle in data["error"]
        _, after = get(service, "/status")
        assert after["jobs"]["total"] == before["jobs"]["total"]

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

    def test_status_skips_a_ledger_line_with_a_non_integer_schema(
        self, service
    ):
        from repro.obs.ledger import RunLedger, RunRecord

        ledger = RunLedger(service.store.root)
        ledger.append(RunRecord(run_id="readable0001", kind="batch",
                                label="a", started_unix=0.0, wall_s=0.1))
        with open(ledger.path, "a") as fh:
            fh.write('{"schema": null}\n')
        status, body = get(service, "/status")
        assert status == 200
        assert [r["run_id"] for r in body["recent_runs"]] == ["readable0001"]

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


    def test_job_counts_read_off_the_job_table(self, tmp_path):
        """One done job, one failed job and one cache-hit resubmit: the
        serve ledger record, ``/status`` and ``/healthz`` count alike."""
        from repro.obs.ledger import RunLedger

        def fails_tzm(apk, config):
            if "tzm" in (apk.name or "").lower():
                raise ValueError("injected failure")
            return Extractocol(config).analyze(apk)

        svc = AnalysisService(tmp_path / "store", port=0, workers=2,
                              retries=0, analyzer=fails_tzm).start()
        try:
            _, done = post(svc, "/analyze", {"target": "diode"})
            _, failed = post(svc, "/analyze", {"target": "tzm"})
            assert wait_done(svc, done["job"]["id"])["status"] == "done"
            assert wait_done(svc, failed["job"]["id"])["status"] == "failed"
            status, hit = post(svc, "/analyze", {"target": "diode"})
            assert status == 200 and hit["job"]["cache_hit"]
            _, body = get(svc, "/status")
            assert body["jobs"] == {"total": 3, "done": 2, "failed": 1}
            _, health = get(svc, "/healthz")
            assert (health["jobs"], health["queued"], health["running"]) == (
                3, 0, 0
            )
            _, metrics = get(svc, "/metrics")
        finally:
            svc.stop()
        [serve] = [r for r in RunLedger(tmp_path / "store").records()
                   if r["kind"] == "serve"]
        assert (serve["targets"], serve["done"], serve["failed"],
                serve["cache_hits"]) == (3, 2, 1, 1)
        # the cache hit ran no analysis; the failed job ran one
        assert serve["analyses_run"] == metrics["counters"]["analyses_run"] == 2

    def test_sigterm_drains_and_writes_the_serve_record(self, tmp_path):
        """``repro serve`` takes SIGTERM, what process managers send, like
        Ctrl-C: it drains the job in flight, exits 0 and leaves its
        ``serve`` ledger record."""
        from repro.obs.ledger import RunLedger

        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store"), "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "repro serve printed no listening line"
            line = proc.stdout.readline()
            url = re.search(r"listening on (http://\S+)", line).group(1)
            req = urllib.request.Request(
                url + "/analyze", data=b'{"target": "tzm"}', method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                assert resp.status == 202
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        serve = [r for r in RunLedger(tmp_path / "store").records()
                 if r["kind"] == "serve"]
        assert len(serve) == 1
        assert (serve[0]["targets"], serve[0]["done"]) == (1, 1)


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

    def test_diff_endpoint_recomputes_and_writes_nothing(self, service):
        key = self._store_one(service, "tzm")
        status, data = get(service, f"/diff/{key}/{key}")
        assert status == 200
        assert set(data) == {"old_key", "new_key", "diff"}
        assert data["diff"]["verdict"] == "identical"
        assert data["diff"]["breaking"] is False

        status, again = get(service, f"/diff/{key}/{key}")
        assert status == 200 and again == data
        _, metrics = get(service, "/metrics")
        assert metrics["counters"]["diffs_computed"] == 2
        # objects/ holds the one report and nothing else
        assert service.store.entries() == [key]
        assert metrics["store"]["entries"] == 1
        _, listing = get(service, "/reports")
        assert [e["key"] for e in listing["reports"]] == [key]

    @pytest.mark.parametrize("name, text", [
        pytest.param("diff-" + "ab" * 20,
                     json.dumps({"diff_schema": 1, "key": "diff-x",
                                 "diff": {}}),
                     id="older-diff-cache"),
        pytest.param("ab" * 32, "{ torn", id="torn"),
        pytest.param("cd" * 32, json.dumps({"schema": 0, "report": {}}),
                     id="other-schema"),
    ])
    def test_report_endpoint_refuses_what_lookup_rejects(
        self, service, name, text
    ):
        path = service.store.path_for(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        status, data = get(service, f"/report/{name}")
        assert status == 404 and data == {"error": "no such report"}

    def test_report_endpoint_serves_the_stored_envelope(self, service):
        key = self._store_one(service, "tzm")
        status, envelope = get(service, f"/report/{key}")
        assert status == 200
        assert envelope == service.store.lookup(key)

    def test_non_object_report_is_neither_listed_nor_diffed(self, service):
        """An envelope whose ``report`` is not an object is no stored
        report: ``GET /reports`` skips it and ``GET /diff`` answers 404."""
        key = self._store_one(service, "tzm")
        bad = "ab" * 32 + "-" + key.split("-", 1)[1]
        path = service.store.path_for(bad)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": 1, "report": [1, 2]}))
        status, data = get(service, "/reports")
        assert status == 200
        assert [e["key"] for e in data["reports"]] == [key]
        assert get(service, f"/diff/{bad}/{bad}")[0] == 404
        assert get(service, f"/diff/{key}/{bad}")[0] == 404

    def test_diff_error_paths(self, service):
        key = self._store_one(service, "tzm")
        assert get(service, f"/diff/{key}/missing")[0] == 404
        assert get(service, "/diff/onlyone")[0] == 400
