"""Observability overhead guard.

The acceptance bar: with tracing disabled (the NULL_TRACER default), the
instrumented pipeline must cost no more than ~2% over an untraced run.
The null tracer is a falsy singleton, so every instrumentation site is a
single cheap branch; we assert a generous 1.10x ceiling on min-of-N
timings, taken in alternating rounds so a host whose speed drifts during
the measurement slows both sides alike, to keep the guard robust against
scheduler noise on shared CI boxes while still catching any real
regression (an accidental eager span allocation shows up as 1.5-3x on
these millisecond-scale apps).
"""

from __future__ import annotations

import time

from repro import AnalysisConfig, Extractocol
from repro.corpus import get_spec
from repro.obs.tracer import NULL_TRACER, Tracer

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


def test_null_tracer_overhead_within_bounds(benchmark):
    spec = get_spec("diode")
    config = AnalysisConfig(scope_prefixes=spec.scope_prefixes)
    apk = spec.build_apk()

    def run():
        return _min_seconds(
            lambda c: Extractocol(c),
            lambda c: Extractocol(c, tracer=NULL_TRACER), apk, config,
        )

    baseline, instrumented = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = instrumented / baseline
    print(f"\n  baseline {baseline * 1000:.2f} ms  "
          f"instrumented {instrumented * 1000:.2f} ms  ratio {ratio:.3f}")
    assert ratio <= 1.10, (
        f"NULL_TRACER instrumentation costs {ratio:.2f}x (budget 1.10x)"
    )


def test_active_tracer_still_cheap(benchmark):
    """An enabled tracer allocates real spans but must stay within a small
    constant factor — the span tree is tiny relative to the analysis."""
    spec = get_spec("diode")
    config = AnalysisConfig(scope_prefixes=spec.scope_prefixes)
    apk = spec.build_apk()

    def run():
        return _min_seconds(
            lambda c: Extractocol(c),
            lambda c: Extractocol(c, tracer=Tracer()), apk, config,
        )

    off, on = benchmark.pedantic(run, rounds=1, iterations=1)
    assert on / off <= 1.25, f"active tracing costs {on / off:.2f}x (budget 1.25x)"
