"""Make the benchmark modules and the program importable, and shrink the
workloads so each test runs in seconds.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, as the benchmark uses."""
    path = ROOT / ".bench_work" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def small(monkeypatch, work):
    """Workload sizes cut down for tests; batch subprocesses find the
    program through PYTHONPATH.  Returns the scratch directory."""
    import workload

    monkeypatch.setattr(workload, "BATCH_SCALE", 2)
    monkeypatch.setattr(workload, "EVOLUTION_APPS", 3)
    monkeypatch.setattr(workload, "MIN_OPS", 1)
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(ROOT / "src")] + ([existing] if existing else [])
    ))
    return work
