"""Regenerate Table 2 (matched byte-count percentages Rk/Rv/Rn)."""

from __future__ import annotations

import pytest

from repro.corpus import app_keys
from repro.evalx.paperdata import TABLE2
from repro.evalx.table2 import table2
from repro.evalx.runner import evaluate_app


@pytest.fixture(scope="module", autouse=True)
def warm():
    for key in app_keys():
        evaluate_app(key)
    yield


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_table2(benchmark, kind):
    row = benchmark(table2, kind)
    rk, rv, rn = row.request
    sk, sv, sn = row.response
    print()
    print(f"  measured {kind}: request Rk/Rv/Rn = "
          f"{rk:.0%}/{rv:.0%}/{rn:.0%}, response = {sk:.0%}/{sv:.0%}/{sn:.0%}")
    print(f"  paper    {kind}: request = "
          f"{TABLE2[(kind, 'request')]}, response = {TABLE2[(kind, 'response')]}")
    # shape: requests nearly fully explained by key/value matches
    assert rk + rv > 0.75
    # shape: roughly half the response bytes are unobserved content
    assert 0.2 < sn < 0.8
