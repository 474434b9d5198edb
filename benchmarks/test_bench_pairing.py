"""Figure 5: disjoint-sub-slice pairing under a shared demarcation point."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_pairing import figure5_program  # noqa: E402

from repro.cfg.callgraph import build_callgraph  # noqa: E402
from repro.deps.pairing import pair_slices  # noqa: E402
from repro.slicing.slicer import NetworkSlicer  # noqa: E402


def test_fig5_disjoint_pairing(benchmark):
    program = figure5_program()

    def run():
        cg = build_callgraph(program)
        slicer = NetworkSlicer(program, cg)
        dp_slices = slicer.slice_dp(slicer.scan()[0])
        return pair_slices(dp_slices.request, dp_slices.response, cg,
                           dp_method=dp_slices.dp.site.method_id)

    pairings = benchmark(run)
    flat = {(p.request_context, p.response_context) for p in pairings}
    print()
    for req, resp in sorted(flat):
        print(f"  {req}  <->  {resp}")
    # one-to-one: A with A, B with B, no cross pairs
    assert any("requestA" in a and "responseA" in b for a, b in flat)
    assert any("requestB" in a and "responseB" in b for a, b in flat)
    assert not any("requestA" in a and "responseB" in b for a, b in flat)
    assert not any("requestB" in a and "responseA" in b for a, b in flat)
