"""Regenerate Figures 6 and 7 (aggregate signature and keyword totals)."""

from __future__ import annotations

import pytest

from repro.evalx.figures import figure6, figure7, render_figures
from repro.evalx.paperdata import FIGURE6, FIGURE7
from repro.evalx.runner import evaluate_app
from repro.corpus import app_keys


@pytest.fixture(scope="module", autouse=True)
def warm():
    for key in app_keys():
        evaluate_app(key)
    yield


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_fig6(benchmark, kind):
    result = benchmark(figure6, kind)
    print()
    print(render_figures(kind).split("Figure 7")[0])
    paper = FIGURE6[kind]
    print(f"  paper       : {paper}")
    if kind == "closed":
        e, m, a = result.extractocol, result.manual, result.third
        assert e.uris > m.uris > a.uris
    else:
        assert result.extractocol.response_bodies == result.third.response_bodies


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_fig7(benchmark, kind):
    result = benchmark(figure7, kind)
    print()
    print("Figure 7" + render_figures(kind).split("Figure 7")[1])
    print(f"  paper       : {FIGURE7[kind]}")
    if kind == "open":
        # the traffic exposes response keywords the app never reads
        assert result.manual.response_keywords > result.extractocol.response_keywords
    else:
        assert result.extractocol.response_keywords > result.third.response_keywords
