"""Corpus-wide determinism across the batch engine's process boundary.

An analysis run inside a shard worker process
(:func:`repro.service.shard.run_sharded_batch`) must store exactly the
report the same analysis produces in-process.  This file pins that
corpus-wide for fork-started workers and on a subset for the (much slower
to start) spawn-started ones, whose fresh interpreters also draw a fresh
hash seed — so set-iteration order leaking into a report shows up here.
The in-process reports themselves are pinned by the golden oracle
(``test_golden_reports.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.core.extractocol import Extractocol
from repro.core.report import report_to_dict
from repro.corpus import app_keys
from repro.service.store import ResultStore
from repro.service.jobs import resolve_target
from repro.service.shard import available_start_methods, run_sharded_batch

SPAWN_APPS = ["diode", "ted", "kayak"]


def _canonical(report_dict: dict) -> str:
    return json.dumps(report_dict, sort_keys=True)


@pytest.fixture(scope="module")
def serial_reports():
    cache: dict[str, str] = {}

    def get(key: str) -> str:
        if key not in cache:
            apk, config, _ = resolve_target(key)
            cache[key] = _canonical(report_to_dict(Extractocol(config).analyze(apk)))
        return cache[key]

    return get


def _sharded_store(root, keys: list[str], start_method: str) -> dict[str, str]:
    """Run ``keys`` through two shard workers; map key -> stored report."""
    records = run_sharded_batch(root, keys, workers=2, start_method=start_method)
    assert [r.status for r in records] == ["done"] * len(keys)
    store = ResultStore(root)
    return {
        r.target: _canonical(store.load(r.result_key)["report"])
        for r in records
    }


@pytest.fixture(scope="module")
def fork_reports(tmp_path_factory):
    if "fork" not in available_start_methods():
        pytest.skip("fork unavailable")
    return _sharded_store(tmp_path_factory.mktemp("fork"), app_keys(), "fork")


@pytest.fixture(scope="module")
def spawn_reports(tmp_path_factory):
    if "spawn" not in available_start_methods():
        pytest.skip("spawn unavailable")
    return _sharded_store(tmp_path_factory.mktemp("spawn"), SPAWN_APPS, "spawn")


@pytest.mark.parametrize("key", app_keys())
def test_fork_pool_matches_serial_corpus_wide(key, fork_reports, serial_reports):
    """Every corpus app, analyzed by a fork-started shard worker, stores
    byte-identically to the in-process analysis."""
    assert fork_reports[key] == serial_reports(key)


@pytest.mark.parametrize("key", SPAWN_APPS)
def test_spawn_pool_matches_serial(key, spawn_reports, serial_reports):
    """Spawned workers rebuild the app from its key in a fresh interpreter;
    the stored report must still be byte-identical."""
    assert spawn_reports[key] == serial_reports(key)


def test_serial_executor_matches_reference(
    tmp_path, monkeypatch, serial_reports
):
    """A one-worker batch runs in this process — it starts no child — and
    stores the same bytes."""
    import multiprocessing

    def no_child(*args, **kwargs):
        raise AssertionError("a one-worker batch started a child process")

    monkeypatch.setattr(multiprocessing, "get_context", no_child)
    (record,) = run_sharded_batch(tmp_path, ["kayak"], workers=1)
    assert record.status == "done"
    stored = ResultStore(tmp_path).load(record.result_key)["report"]
    assert _canonical(stored) == serial_reports("kayak")
