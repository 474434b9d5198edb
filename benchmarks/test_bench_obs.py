"""Observability overhead guard for an enabled trace.

Untraced runs need no timing guard: their parent span is ``NULL_SPAN``,
whose ``child`` is itself, and ``tests/test_obs_tracer.py`` counts that an
untraced analysis of every corpus app constructs no span at all.  This
bench checks the other side: a live span tree, built while the analysis
runs, must stay within a small constant factor.  Min-of-N timings are
taken in alternating rounds so a host whose speed drifts during the
measurement slows both sides alike.
"""

from __future__ import annotations

import time

from repro import AnalysisConfig, Extractocol
from repro.corpus import get_spec
from repro.obs.tracer import Span

ROUNDS = 7


def _min_seconds(make_a, make_b, apk, config) -> tuple[float, float]:
    """Best time of each of two engine configurations over ``ROUNDS``
    rounds, one run of each per round: the host's drift over the
    measurement then touches both alike."""
    best = [float("inf"), float("inf")]
    for _ in range(ROUNDS):
        for i, make_engine in enumerate((make_a, make_b)):
            engine = make_engine(config)
            t0 = time.perf_counter()
            engine.analyze(apk)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best[0], best[1]


def test_active_tracer_still_cheap(benchmark):
    """An enabled trace allocates real spans but must stay within a small
    constant factor — the span tree is tiny relative to the analysis."""
    spec = get_spec("diode")
    config = AnalysisConfig(scope_prefixes=spec.scope_prefixes)
    apk = spec.build_apk()

    def run():
        return _min_seconds(
            lambda c: Extractocol(c),
            lambda c: Extractocol(c, span=Span("repro")), apk, config,
        )

    off, on = benchmark.pedantic(run, rounds=1, iterations=1)
    assert on / off <= 1.25, f"active tracing costs {on / off:.2f}x (budget 1.25x)"
