"""Per-layer tracing from outside the program.

A traced run wraps the public entry points each layer exposes, records one
span per call (name, start, end, parent) in memory and reduces the spans to
self times when the run ends.  Nothing under ``src/`` is edited: the
wrappers are installed by rebinding module and class attributes for the
duration of a ``with install(recorder, ...)`` block and restored after it.

``Extractocol.analyze`` binds its phase helpers as module globals of
``repro.core.extractocol`` at import time, and the incremental engine
imports its helpers from their home modules at call time, so both places are
rebound.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

#: (module path, attribute, span name) for functions
ANALYSIS_FUNCTIONS = (
    ("repro.core.extractocol", "build_callgraph", "cfg.callgraph"),
    ("repro.cfg.callgraph", "build_callgraph", "cfg.callgraph"),
    ("repro.core.extractocol", "discover_callbacks", "semantics.async"),
    ("repro.semantics.async_model", "discover_callbacks", "semantics.async"),
    ("repro.core.extractocol", "compute_event_roots", "semantics.async"),
    ("repro.semantics.async_model", "compute_event_roots", "semantics.async"),
    ("repro.core.extractocol", "ProgramIndex", "perf.index"),
    ("repro.core.extractocol", "infer_dependencies", "deps.infer"),
    ("repro.core.extractocol", "from_record", "deps.assemble"),
    ("repro.core.extractocol", "_dedupe", "deps.assemble"),
    ("repro.ir.fingerprint", "fingerprint_program", "ir.fingerprint"),
    ("repro.incr.reuse", "fingerprints_in_base_namespace", "ir.fingerprint"),
    ("repro.incr.manifest", "build_manifest", "incr.manifest_write"),
    ("repro.apk.loader", "apk_digest", "apk.digest"),
)

#: (module path, class, method, span name) for methods
ANALYSIS_METHODS = (
    ("repro.core.extractocol", "Extractocol", "analyze", "op"),
    ("repro.slicing.slicer", "NetworkSlicer", "__init__", "slicing.slice"),
    ("repro.slicing.slicer", "NetworkSlicer", "slice_all", "slicing.slice"),
    ("repro.slicing.slicer", "NetworkSlicer", "scan", "slicing.scan"),
    ("repro.core.extractocol", "Extractocol", "_relevant_methods",
     "signature.run"),
    ("repro.signature.builder", "SignatureInterpreter", "__init__",
     "signature.run"),
    ("repro.signature.builder", "SignatureInterpreter", "run", "signature.run"),
    ("repro.service.store", "ResultStore", "get_manifest", "incr.manifest_read"),
    ("repro.service.store", "ResultStore", "put_manifest", "incr.manifest_write"),
    ("repro.incr.reuse", "ReuseIndex", "plan", "incr.plan"),
)

#: the per-target chain of a batch entry, as ``service.shard._process_item``
#: runs it; the replay in :func:`replay_chain` calls these in the same order
BATCH_FUNCTIONS = (
    ("repro.fleetindex.index", "write_pending_delta", "fleetindex.delta"),
)
BATCH_METHODS = (
    ("repro.service.store", "ResultStore", "get", "store.get"),
    ("repro.service.store", "ResultStore", "put", "store.put"),
    ("repro.service.store", "ResultStore", "claim", "store.lease"),
    ("repro.service.store", "ResultStore", "release", "store.lease"),
    ("repro.core.config", "AnalysisConfig", "cache_key", "core.cache_key"),
)


class Recorder:
    """In-memory span list; single-threaded (every traced path here runs
    the default in-process engine)."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code (the root of
        one replayed batch entry, say)."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def reduce(self) -> "Reduction":
        return Reduction(self.spans)


class Reduction:
    """Self time per layer name, plus the root spans (one per op)."""

    def __init__(self, spans: list[list]) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.self_s: dict[str, float] = {}
        self.ops = 0
        self.op_s = 0.0
        self.op_self_s = 0.0
        #: per op, the share of its wall time its named layers account for
        self.op_attributed: list[float] = []
        for i, (name, start, end, parent) in enumerate(spans):
            own = (end - start) - child_time[i]
            if parent is None:
                self.ops += 1
                self.op_s += end - start
                self.op_self_s += own
                if end > start:
                    self.op_attributed.append(child_time[i] / (end - start))
            else:
                self.self_s[name] = self.self_s.get(name, 0.0) + own

    def per_op_ms(self, name: str) -> float:
        """Mean self time of ``name`` per op, in ms (0 when never called)."""
        return self.self_s.get(name, 0.0) / self.ops * 1000 if self.ops else 0.0

    @property
    def attributed_fraction(self) -> float:
        return 1.0 - self.op_self_s / self.op_s if self.op_s else 0.0

    @property
    def p10_op_attributed(self) -> float:
        """Nine ops in ten have at least this share of their time
        attributed (one op's share also absorbs that op's collector pauses
        and preemptions, so the minimum is not a stable figure)."""
        if len(self.op_attributed) < 2:
            return self.op_attributed[0] if self.op_attributed else 0.0
        return statistics.quantiles(self.op_attributed, n=10)[0]

    @property
    def other_ms(self) -> float:
        """Per-op time that no named layer accounts for."""
        return self.op_self_s / self.ops * 1000 if self.ops else 0.0


def resolve(functions=(), methods=()) -> list[tuple]:
    """(owner, attribute, span name) for every listed target that exists.
    A target the program no longer has is skipped, so its time shows up
    as unattributed instead of breaking the run."""
    import importlib

    out = []
    for module_name, attr, span in functions:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            out.append((module, attr, span))
    for module_name, cls_name, attr, span in methods:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is not None and attr in cls.__dict__:
            out.append((cls, attr, span))
    return out


@contextlib.contextmanager
def install(recorder: Recorder, functions=(), methods=()):
    """Rebind each listed function and method to a span-recording wrapper
    for the duration of the block."""
    saved = []
    try:
        for owner, attr, span in resolve(functions, methods):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(span, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def replay_chain(store, index: int, target: str, batch_id: str):
    """One batch entry's per-target chain, in ``_process_item`` order, in
    this process: batch claim, target resolution and APK build, digest and
    cache key, store probe, then lease, analysis and put on a miss.  Returns
    ``(cache_hit, report)``: the stored report's dict on a hit, the fresh
    ``AnalysisReport`` on a miss."""
    from repro.apk.loader import apk_digest
    from repro.core.extractocol import Extractocol
    from repro.service.jobs import resolve_target
    from repro.service.store import result_key

    store.claim(f"batch-{batch_id}-{index}")
    apk, config, _label = resolve_target(target)
    digest = apk_digest(apk)
    key = result_key(digest, config.cache_key())
    envelope = store.get(digest, config.cache_key())
    if envelope is not None:
        store.release(f"batch-{batch_id}-{index}")
        return True, envelope["report"]
    store.claim(key)
    try:
        report = Extractocol(config).analyze(apk)
        store.put(digest, config.cache_key(), report)
    finally:
        store.release(key)
        store.release(f"batch-{batch_id}-{index}")
    return False, report


def traced_chain_names() -> tuple:
    """Function and method lists for a traced replay: the batch layers
    plus target resolution and the analysis as one layer each."""
    functions = BATCH_FUNCTIONS + (
        ("repro.service.jobs", "resolve_target", "synth.build"),
        ("repro.apk.loader", "apk_digest", "apk.digest"),
    )
    methods = BATCH_METHODS + (
        ("repro.core.extractocol", "Extractocol", "analyze", "core.analyze"),
    )
    return functions, methods
