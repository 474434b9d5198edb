"""Figure 3 / §3.2 efficiency: network-aware slicing isolates a small
fraction of the code, and signature building scoped by slices beats the
unscoped ablation."""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Extractocol
from repro.cfg.callgraph import build_callgraph
from repro.corpus import build_app, get_spec
from repro.slicing.slicer import NetworkSlicer


def test_fig3_diode_slice(benchmark):
    """Slice Diode and report the code fraction (paper: 6.3%)."""
    apk = build_app("diode")

    def run():
        cg = build_callgraph(apk.program)
        slicer = NetworkSlicer(apk.program, cg)
        return slicer.slice_all()

    report = benchmark(run)
    print()
    print(f"  slice fraction: {report.slice_fraction:.1%} "
          f"({len(report.sliced_statements)} of "
          f"{report.total_statements} statements; paper: 6.3%)")
    assert 0 < report.slice_fraction < 0.5


@pytest.mark.parametrize("key", ["diode", "ted", "kayak"])
def test_slicing_scales(benchmark, key):
    apk = build_app(key)

    def run():
        cg = build_callgraph(apk.program)
        return NetworkSlicer(apk.program, cg).slice_all()

    report = benchmark(run)
    assert report.slices


def test_ablation_slicing_scope(benchmark):
    """DESIGN.md ablation: signature building scoped to slices vs. the
    unscoped interpreter — same signatures either way."""
    spec = get_spec("diode")

    def run_both():
        scoped = Extractocol(AnalysisConfig(use_slicing=True)).analyze(
            spec.build_apk()
        )
        unscoped = Extractocol(AnalysisConfig(use_slicing=False)).analyze(
            spec.build_apk()
        )
        return scoped, unscoped

    scoped, unscoped = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert scoped.unique_uri_signatures() == unscoped.unique_uri_signatures()
