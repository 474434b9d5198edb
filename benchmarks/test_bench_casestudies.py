"""Regenerate the case studies: Tables 3-6, Figures 1 and 8."""

from __future__ import annotations

import pytest

from repro.evalx.casestudy import (
    figure1_chain,
    figure8,
    render_table4,
    render_table5,
    render_table6,
    table3,
    table5,
    table6,
)
from repro.evalx.runner import evaluate_app


def test_table3_radioreddit(benchmark):
    text = benchmark(table3)
    print()
    print(text)
    assert "login" in text
    assert "media_player" in text
    # six transactions, the Table 3 inventory
    assert text.count("#") >= 6


def test_table4_ted(benchmark):
    text = benchmark(render_table4)
    print()
    print(text)
    assert "(D)" in text and "(S)" in text
    assert "media_player" in text


def test_table5_kayak(benchmark):
    rows = benchmark(table5)
    print()
    print(render_table5())
    assert sum(r.apis for r in rows) == 43


def test_table6_kayak(benchmark):
    sigs = benchmark(table6)
    print()
    print(render_table6())
    assert "action=registerandroid" in sigs["/k/authajax"]


def test_fig1_ted_prefetch_chain(benchmark):
    chain = benchmark(figure1_chain)
    print()
    for line in chain:
        print(" ", line[:110])
    assert any("media_player" in line for line in chain)


def test_fig8_rrd_keyword_match(benchmark):
    result = benchmark(figure8)
    print()
    print(f"  matched {result.matched_keywords}/{result.total_traffic_keywords} "
          f"keywords; unmatched: {result.unmatched}")
    print("  paper: 16/18 ('album' and 'score' are not processed by the app)")
    assert result.matched_keywords == 16
    assert result.total_traffic_keywords == 18
