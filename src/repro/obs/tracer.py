"""Nested-span tracing for the analysis pipeline.

A :class:`Span` is one named region of work: it carries monotonic timing,
integer counters, arbitrary JSON-safe attributes, and child spans.  A
trace is a root span (``Span("repro")``); every traced entry point takes
its parent span as ``span=`` and opens children with
``with span.child("phase:slicing") as s: ...``.

Two properties the exporters (`repro.obs.export`) rely on:

* **Deterministic identity** — a span's id is a content hash of its
  *path* (the ``/``-joined chain of names from the root), never a Python
  ``id()`` or a random value.  Sibling name collisions are disambiguated
  with a ``#<n>`` suffix at creation time, so paths are unique by
  construction and two runs of the same workload produce the same ids.
* **Free when disabled** — the process-wide default parent is
  :data:`NULL_SPAN`: every operation on it is a no-op and ``child``
  returns itself, so instrumented code pays one attribute load and a
  C-level call per event, nothing else.  Hot loops should still batch
  (accumulate a local ``int`` and ``count()`` once) rather than count per
  iteration.

Timing uses ``time.perf_counter`` and lives in ``Span.seconds``; the JSONL
exporter omits it unless asked, so trace files are byte-deterministic.
"""

from __future__ import annotations

import threading
import time


class Span:
    """One traced region.  Use as a context manager to time it, or create
    it post-hoc (fan-out results collected from workers) and assign
    ``seconds`` directly."""

    __slots__ = (
        "name",
        "parent",
        "children",
        "attrs",
        "counters",
        "seconds",
        "_t0",
        "_lock",
        "_sibling_names",
    )

    def __init__(self, name: str, parent: "Span | None" = None, **attrs) -> None:
        self.name = name
        self.parent = parent
        self.children: list[Span] = []
        self.attrs: dict[str, object] = dict(attrs)
        self.counters: dict[str, int] = {}
        self.seconds: float = 0.0
        self._t0: float | None = None
        self._lock = threading.Lock()
        self._sibling_names: dict[str, int] = {}

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------- building
    def child(self, name: str, **attrs) -> "Span":
        """A new child span.  Duplicate sibling names get a deterministic
        ``#<n>`` suffix so every span path is unique."""
        with self._lock:
            seen = self._sibling_names.get(name, 0)
            self._sibling_names[name] = seen + 1
            if seen:
                name = f"{name}#{seen + 1}"
            span = Span(name, parent=self, **attrs)
            self.children.append(span)
        return span

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def set(self, name: str, value) -> None:
        self.attrs[name] = value

    # --------------------------------------------------------------- timing
    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._t0 is not None:
            self.seconds = time.perf_counter() - self._t0
            self._t0 = None

    @property
    def self_seconds(self) -> float:
        """Time spent in this span minus its children (never negative)."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    # ------------------------------------------------------------- identity
    @property
    def path(self) -> str:
        parts = []
        node: Span | None = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    @property
    def span_id(self) -> str:
        import hashlib

        return hashlib.sha256(self.path.encode("utf-8")).hexdigest()[:16]

    def walk(self):
        """Depth-first iteration in creation order (deterministic)."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:
        return f"Span({self.path!r}, seconds={self.seconds:.6f})"


class _NullSpan:
    """The untraced parent span: every operation is a no-op on a single
    shared instance, and ``child`` returns itself, so untraced code
    allocates no span.  Falsy, so instrumented code can guard optional
    work with ``if span: ...``."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def child(self, name: str, **attrs) -> "_NullSpan":
        return self

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def set(self, name: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    @property
    def seconds(self) -> float:
        return 0.0

    @seconds.setter
    def seconds(self, value: float) -> None:
        pass

    def __repr__(self) -> str:
        return "NullSpan()"


#: The process-wide untraced span; safe to share (it holds no state).
#: Every traced entry point defaults its ``span`` parameter to it.
NULL_SPAN = _NullSpan()


__all__ = ["NULL_SPAN", "Span"]
