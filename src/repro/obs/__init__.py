"""repro.obs — observability for the analysis pipeline.

Zero-dependency tracing (nested spans with deterministic ids: a trace is a
root :class:`Span`, and every traced entry point takes its parent span as
``span=``, defaulting to the free :data:`NULL_SPAN`), per-phase stats
embedded in analysis reports, a unified metrics registry with
Prometheus text exposition, trace export (JSONL / collapsed stacks),
taint provenance ("why is this field in the signature?"), and the fleet
telemetry layer (cross-process trace aggregation, run ledger).

The package imports nothing: an analysis loads only :mod:`.tracer` and
:mod:`.phases`, never the exporters, the fleet layer or provenance (which
pulls in the whole pipeline).
"""
