"""repro.obs — observability for the analysis pipeline.

Zero-dependency tracing (nested spans with deterministic ids), per-phase
stats embedded in analysis reports, a unified metrics registry with
Prometheus text exposition, trace export (JSONL / collapsed stacks),
taint provenance ("why is this field in the signature?"), and the fleet
telemetry layer (cross-process trace aggregation, run ledger).

The provenance and ledger helpers are imported lazily:
provenance pulls in the full pipeline (`repro.core.extractocol`), which
itself imports this package for tracing.
"""

from __future__ import annotations

from .export import (
    TRACE_SCHEMA_VERSION,
    collapsed_stacks,
    events_to_span,
    span_events,
    to_jsonl,
    validate_jsonl,
    write_jsonl,
)
from .fleet import (
    BatchProgress,
    WorkerTelemetry,
    family_of,
    host_fingerprint,
    merge_worker_traces,
    run_telemetry_dir,
    write_fleet_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from .phases import PHASES, PhaseStats, phase_table
from .tracer import NULL_SPAN, NULL_TRACER, Span, SpanTracer, Tracer

__all__ = [
    "BatchProgress",
    "Counter",
    "FieldProvenance",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "PHASES",
    "PhaseStats",
    "ProvenanceStep",
    "RunLedger",
    "RunRecord",
    "Span",
    "SpanTracer",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "WorkerTelemetry",
    "collapsed_stacks",
    "events_to_span",
    "explain",
    "family_of",
    "host_fingerprint",
    "merge_worker_traces",
    "new_run_id",
    "phase_table",
    "render_prometheus",
    "run_telemetry_dir",
    "span_events",
    "to_jsonl",
    "validate_jsonl",
    "write_fleet_trace",
    "write_jsonl",
]

_LAZY = {
    "FieldProvenance": "provenance",
    "ProvenanceStep": "provenance",
    "explain": "provenance",
    "RunLedger": "ledger",
    "RunRecord": "ledger",
    "new_run_id": "ledger",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
