"""Host-speed calibration.

A shared 2-vCPU host does not run at one speed.  A fixed pure-Python loop
takes 0.19 s for a while, then 0.28 s for the next stretch, with CPU time
equal to wall time and no steal time reported throughout: another tenant on
the same physical cores, not this process, sets the pace.  Stretches last
seconds to minutes, so no run length averages them away, and two runs of
the same code minutes apart can differ by 15-50 %.

Every time the benchmark reports is therefore scaled to a reference host
speed:

    scaled = raw * REFERENCE_S / probe

where ``probe`` is how long :func:`probe_work` took right next to the
measured interval and ``REFERENCE_S`` is a fixed constant (how long the
probe takes on the fast host this benchmark was written on).  The probe is
the benchmark's own code, so a change to the program cannot move it.  On 20
back-to-back 10 s windows of the hand-written corpus, this took the spread
(interquartile range over median) of throughput from 0.085 to 0.026.
"""

from __future__ import annotations

import gc
import statistics
import time

#: probe time on the reference host; scaled times read as seconds on a
#: host where one probe takes this long
REFERENCE_S = 0.001
PROBE_ROUNDS = 3000
#: probes on each side of an op that calibrate it
NEIGHBOURS = 2


def probe_work(rounds: int = PROBE_ROUNDS) -> int:
    """Fixed interpreter-bound work shaped like the analysis: string
    formatting, dict and set updates keyed by tuples, list appends."""
    acc = 0
    nodes: dict = {}
    seen = set()
    for i in range(rounds):
        key = f"m{i & 127}"
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = [key, []]
        node[1].append(key)
        if (key, i & 7) not in seen:
            seen.add((key, i & 7))
        acc += len(node[1])
    return acc


def probe() -> float:
    """CPU seconds one :func:`probe_work` takes now, in this thread.  The
    host's slowdown shows in CPU time (it steals no time, it runs the core
    slower), and CPU time leaves out any wait for a core.  The collector is
    off meanwhile, so the size of the program's heap cannot leak into the
    probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        probe_work()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def factor(probe_s: float) -> float:
    """What a time measured while one probe took ``probe_s`` is multiplied
    by to read as a time on the reference host."""
    return REFERENCE_S / probe_s


def scale_each(raw: list[float], probes: list[float]) -> list[float]:
    """Scale ``raw[i]`` by the median of the probes taken around it
    (``probes[i]`` was taken right after ``raw[i]``); a median of a few
    neighbours keeps one preempted probe from skewing its op."""
    out = []
    for i, value in enumerate(raw):
        near = probes[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]
        out.append(value * factor(statistics.median(near)))
    return out

