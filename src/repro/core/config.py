"""Analysis configuration (the knobs paper §5 varies)."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

#: Fields that select *how* the analysis executes, not *what* it computes.
#: Reports are identical across these knobs (both modes yield the
#: full-mode report), so the service result store must not shard its
#: cache on them.
_EXECUTION_FIELDS = frozenset({"mode"})

#: The values of :attr:`AnalysisConfig.mode`.
MODES = ("full", "incremental")


@dataclass
class AnalysisConfig:
    """Configuration for one Extractocol run.

    ``async_heuristic`` — §3.4's asynchronous-event handling.  The paper
    disables it for open-source apps and enables it for closed-source apps
    (§5.1); disabled means implicit data flows across event boundaries are
    not tracked (0 hops), enabled tracks one hop.

    ``scope_prefixes`` — restrict reported transactions to demarcation
    points inside the given class-name prefixes (the Kayak case study
    scopes to ``com.kayak`` to exclude external libraries, §5.3).

    ``use_slicing`` — when True (default), signature building is scoped to
    the methods the network-aware slices identified; False interprets every
    entry point unrestricted (slower, used for ablation).

    ``rounds`` — the cap on global signature-building iterations.  Rounds
    repeat until one has no stale read (§3.4: "until it does not discover
    new dependencies"): a heap field, DB table or preference read before a
    later store in the same round changed it.  The default 2 lets values
    stored by one event (login response tokens, DB rows) surface in
    signatures of other events.

    There is one analysis engine: every run builds one
    :class:`~repro.perf.index.ProgramIndex` (CFGs, one slicing table per
    method and the heap field index, memoized per analysis)
    shared by both taint directions, the slicer and the signature
    interpreter, and slices demarcation points one after another.
    Parallelism lives a level up, across apps: ``repro batch`` shards a
    batch over analyzer workers (:mod:`repro.service.shard`).
    """

    async_heuristic: bool = True
    scope_prefixes: tuple[str, ...] = ()
    use_slicing: bool = True
    rounds: int = 2
    max_async_hops_override: int | None = None
    #: §4 extensions (off by default, as in the paper's prototype):
    #: model intra-app Intent messaging / direct java.net.Socket use.
    model_intents: bool = False
    model_sockets: bool = False
    #: pre-analysis lint gate (``repro.lint``): "off" (default) skips lint
    #: entirely; "record" carries findings on the report; "error" aborts on
    #: error-severity findings; "strict" aborts on warnings too.  Semantic:
    #: findings land in the serialised report, so the cache shards on it.
    lint_level: str = "off"
    #: how the engine decides what to analyze (one of :data:`MODES`):
    #:
    #: ================= ==================================================
    #: ``"full"``        slice every demarcation point
    #: ``"incremental"`` replay cached DP slices whose fingerprinted
    #:                   backward-reachable method set is unchanged since
    #:                   the stored manifest; re-slice only dirtied DPs
    #:                   (``repro.incr``)
    #: ================= ==================================================
    #:
    #: An execution knob: reports are byte-identical across modes (warm
    #: incremental runs assert identity against the cold report), so the
    #: result store must not shard on it.
    mode: str = "full"

    @property
    def max_async_hops(self) -> int:
        if self.max_async_hops_override is not None:
            return self.max_async_hops_override
        return 1 if self.async_heuristic else 0

    def semantic_fields(self) -> dict:
        """The fields that can change analysis *output*, as JSON-safe
        values — every dataclass field except the execution knobs, so a
        newly added knob shards the cache by default instead of silently
        aliasing stale entries."""
        out = {}
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in _EXECUTION_FIELDS:
                continue
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def cache_key(self) -> str:
        """Stable content hash of the semantically relevant configuration.

        Two configs with the same key produce byte-identical reports for
        the same APK; the execution knob ``mode`` is excluded, so a report
        analysed in one mode is a cache hit for a request in another."""
        import hashlib

        blob = json.dumps(
            self.semantic_fields(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _is_int_at_least(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_override(name: str, value) -> None:
    """Raise :class:`ValueError` unless ``value`` is a valid JSON value for
    the field ``name``."""
    if name == "mode":
        if value not in MODES:
            raise ValueError(f"unknown analysis mode: {value!r}")
        return
    if name == "lint_level":
        from ..lint.runner import GATE_LEVELS

        ok, expected = value in GATE_LEVELS, f"one of {', '.join(GATE_LEVELS)}"
    elif name == "rounds":
        ok, expected = _is_int_at_least(value, 1), "an integer >= 1"
    elif name == "max_async_hops_override":
        ok = value is None or _is_int_at_least(value, 0)
        expected = "null or an integer >= 0"
    elif name == "scope_prefixes":
        ok = isinstance(value, (list, tuple)) and all(
            isinstance(p, str) for p in value
        )
        expected = "a list of strings"
    else:  # every other field is a flag
        ok, expected = isinstance(value, bool), "true or false"
    if not ok:
        raise ValueError(
            f"AnalysisConfig field {name!r} must be {expected}, not {value!r}"
        )


def apply_overrides(config: AnalysisConfig, overrides: dict | None) -> None:
    """Set ``overrides`` (field name → JSON value, as a request carries
    them) on ``config``; raises :class:`ValueError` for a non-object, an
    unknown field or a value of the wrong type or range, before any field
    is set."""
    if not overrides:
        return
    if not isinstance(overrides, dict):
        raise ValueError("AnalysisConfig overrides must be a JSON object")
    names = {f.name for f in fields(config)}
    for name, value in overrides.items():
        if name not in names:
            raise ValueError(f"unknown AnalysisConfig field {name!r}")
        _check_override(name, value)
    for name, value in overrides.items():
        if name == "scope_prefixes":
            value = tuple(value)
        setattr(config, name, value)


__all__ = ["MODES", "AnalysisConfig", "apply_overrides"]
