"""Program-slice result types shared by the taint engine and its clients."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.statements import StmtRef
from ..ir.values import FieldSig


@dataclass
class SliceResult:
    """A program slice: the statements reachable by taint propagation from
    the seeds, plus the relations later phases need.

    ``direction`` is ``"backward"`` (request slice) or ``"forward"``
    (response slice).
    """

    direction: str
    #: the slice's statements, each mapped to its provenance parent: the
    #: statement whose processing pulled it into the slice (the first
    #: parent wins; ``None`` for seeds and for what object-aware
    #: augmentation adds).  Walking parents from any statement the engine
    #: added reaches a seed, i.e. the demarcation point.
    stmts: dict[StmtRef, StmtRef | None] = field(default_factory=dict)
    #: call-graph edges the propagation traversed: (site, callee method id)
    call_edges: set[tuple[StmtRef, str]] = field(default_factory=set)
    #: heap cells the slice reads (backward) or writes (forward)
    fields: set[FieldSig] = field(default_factory=set)
    #: implicit flows skipped because they exceeded the async-hop budget
    missed_async_flows: set[StmtRef] = field(default_factory=set)
    #: every method whose body the engine examined while building this
    #: slice — a superset of ``methods``.  The incremental engine
    #: (``repro.incr``) replays a cached slice only when no method in this
    #: set changed, so under-recording here silently reuses stale slices;
    #: the engine records a method the moment it resolves its body.
    visited: set[str] = field(default_factory=set)
    #: engine effort counters (worklist_iterations, facts_enqueued,
    #: hop_widenings, ...) — diagnostics only, never serialized by default
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def methods(self) -> set[str]:
        return {ref.method_id for ref in self.stmts}

    def __len__(self) -> int:
        return len(self.stmts)

    def __contains__(self, ref: StmtRef) -> bool:
        return ref in self.stmts


__all__ = ["SliceResult"]
