"""Benchmark fixtures: build every corpus entry (its ground-truth probe
included) once per session so pytest-benchmark timings measure the
analysis, not corpus construction."""

from __future__ import annotations

import pytest

from repro.corpus import app_keys, get_spec


@pytest.fixture(scope="session", autouse=True)
def warm_corpus():
    for key in app_keys():
        get_spec(key)
    yield
