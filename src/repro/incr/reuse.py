"""Cross-version slice reuse: manifest diffing and cached-DP replay.

The dirtiness rule (documented in DESIGN.md):

A cached demarcation-point slice may be replayed iff

1. the fresh scan finds a DP with the *same identity* (spec, site, seeds —
   compared after mapping the cached entry through the
   :class:`~repro.apk.rewrite.RenameMap` for obfuscated re-releases),
2. no method the old slice *visited* changed fingerprint (changed, removed
   — the engine records every body it resolves, so this covers the whole
   backward/forward reachable set of the slice),
3. no added/changed method calls into the slice's visited set (a new
   caller feeds new argument taint into parameter back-propagation), and
4. no dirty method changed how it touches a heap cell in the slice's
   ``fields`` set (field-based taint jumps across arbitrary methods, so
   heap coupling is not bounded by the call graph).  This guard is
   per-field precise: manifests record a content hash of each method's
   accessing statements per field, so an edit elsewhere in a method that
   also happens to touch a tracked field does not invalidate slices
   coupled only through that — unchanged — cell.

Everything else re-slices.  Fingerprint comparison happens in the *old*
namespace: for renamed re-releases the new program is mapped back with
``rename_program(new, renames.inverted())`` first, because fingerprints
hash printed identifiers and are namespace-sensitive by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apk.rewrite import (
    RenameMap,
    _Rewriter,
    rename_method_id,
    rename_program,
)
from ..ir.types import parse_type
from ..ir.values import FieldSig
from ..slicing.slicer import DPSlices
from .manifest import (
    dp_identity,
    dp_visited,
    field_key,
    method_field_hashes,
    parse_field_key,
    slice_from_dict,
)


def _has_renames(renames: RenameMap | None) -> bool:
    return renames is not None and bool(
        renames.class_map or renames.method_map or renames.field_map
    )


def fingerprints_in_base_namespace(
    apk, config, *, registry=None, renames: RenameMap | None = None
) -> dict[str, str]:
    """Fingerprint ``apk``'s program as the base (pre-rename) namespace
    sees it: map the program back through the inverted rename map, rerun
    the cheap setup passes (call graph, async model, demarcation scan —
    all O(program), no slicing) and hash.

    With no renames the program is fingerprinted as-is; callers that
    already hold post-scan setup artifacts should fingerprint those
    directly instead (and reuse that map for the manifest)."""
    from ..cfg.callgraph import build_callgraph
    from ..ir.fingerprint import fingerprint_program
    from ..semantics.async_model import (
        compute_event_roots,
        discover_callbacks,
    )
    from ..slicing.demarcation import scan_demarcation_points

    program = apk.program
    entry_ids = [ep.method_id for ep in apk.entrypoints]
    if _has_renames(renames):
        inv = renames.inverted()
        program = rename_program(program, inv)
        entry_ids = [rename_method_id(m, inv, program) for m in entry_ids]
    callgraph = build_callgraph(program)
    cbinfo = discover_callbacks(program, callgraph)
    if config.model_intents:
        from ..semantics.extensions import discover_intent_edges

        discover_intent_edges(program, callgraph)
    event_roots = compute_event_roots(
        program, callgraph, entry_ids, cbinfo.boundary_methods
    )
    scan_demarcation_points(program, callgraph, registry)
    return fingerprint_program(
        program,
        callgraph,
        event_roots=event_roots,
        linked_returns=cbinfo.linked_returns,
        entrypoint_ids=frozenset(entry_ids),
    )


class _EntryMapper:
    """Maps a slim manifest entry from the old namespace into the new one
    (identity mapping when there are no renames)."""

    def __init__(self, renames: RenameMap | None) -> None:
        self._active = _has_renames(renames)
        self._rw = _Rewriter(renames) if self._active else None
        self._renames = renames
        self._mids: dict[str, str] = {}

    def mid(self, method_id: str) -> str:
        if not self._active:
            return method_id
        mapped = self._mids.get(method_id)
        if mapped is None:
            mapped = rename_method_id(method_id, self._renames, None)
            self._mids[method_id] = mapped
        return mapped

    def type_str(self, name: str) -> str:
        if not self._active:
            return name
        return str(self._rw.type(parse_type(name)))

    def field(self, cls: str, name: str, type_name: str) -> list:
        if not self._active:
            return [cls, name, type_name]
        f = self._rw.field_sig(FieldSig(cls, name, parse_type(type_name)))
        return [f.class_name, f.name, str(f.type)]

    def seed_token(self, token: str) -> str:
        loc, _, value = token.partition("|")
        mid, _, idx = loc.rpartition("#")
        mapped = f"{self.mid(mid)}#{idx}"
        if value.startswith("l:"):
            _, name, type_name = value.split(":", 2)
            value = f"l:{name}:{self.type_str(type_name)}"
        return f"{mapped}|{value}"

    def slice_dict(self, data: dict) -> dict:
        return {
            "direction": data["direction"],
            "stmts": [[self.mid(m), i] for m, i in data["stmts"]],
            "call_edges": [
                [self.mid(m), i, self.mid(t)]
                for m, i, t in data["call_edges"]
            ],
            "fields": [self.field(c, n, t) for c, n, t in data["fields"]],
            "missed": [[self.mid(m), i] for m, i in data["missed"]],
            "visited": [self.mid(m) for m in data["visited"]],
            "stats": data["stats"],
        }

    def entry(self, entry: dict) -> dict:
        cls = entry["spec"][0]
        mapped_cls = (
            self._renames.cls(cls) if self._active else cls
        )
        site = [self.mid(entry["site"][0]), entry["site"][1]]
        listener = entry["listener_class"]
        if listener is not None and self._active:
            listener = self._renames.cls(listener)
        return {
            "key": (
                f"{mapped_cls}.{entry['spec'][1]}"
                f"@{site[0]}#{site[1]}"
            ),
            "site": site,
            "spec": [mapped_cls, entry["spec"][1]],
            "listener_class": listener,
            "request_seeds": sorted(
                self.seed_token(t) for t in entry["request_seeds"]
            ),
            "response_seeds": sorted(
                self.seed_token(t) for t in entry["response_seeds"]
            ),
            "request": self.slice_dict(entry["request"]),
            "response": self.slice_dict(entry["response"]),
        }


@dataclass
class ReusePlan:
    """The outcome of one manifest comparison: which scanned demarcation
    points replay from cache and which must be re-sliced."""

    #: new-namespace DP key -> replayed DPSlices (seconds = 0.0)
    reused: dict[str, DPSlices] = field(default_factory=dict)
    #: scanned DPInstances needing a live re-slice, in scan order
    dirty_dps: list = field(default_factory=list)
    #: old-namespace method ids whose fingerprint changed/appeared/vanished
    dirty_methods: set[str] = field(default_factory=set)

    @property
    def counters(self) -> dict[str, int]:
        return {
            "reused": len(self.reused),
            "reanalyzed": len(self.dirty_dps),
            "dirty_methods": len(self.dirty_methods),
        }


class ReuseIndex:
    """Compares a stored manifest against a new program's fingerprints and
    plans which cached DP slices survive.  ``manifest`` has the shape
    :meth:`~repro.service.store.ResultStore.get_manifest` guarantees."""

    def __init__(self, manifest: dict) -> None:
        self.manifest = manifest

    def plan(
        self,
        scanned_dps,
        new_fingerprints: dict[str, str],
        program,
        callgraph,
        *,
        renames: RenameMap | None = None,
    ) -> ReusePlan:
        """``new_fingerprints`` must be in the manifest's (old) namespace —
        see :func:`fingerprints_in_base_namespace`; ``program`` and
        ``callgraph`` are the new version's live (post-scan) artifacts."""
        old_fp = self.manifest["methods"]
        dirty_old = {
            mid
            for mid in old_fp.keys() | new_fingerprints.keys()
            if old_fp.get(mid) != new_fingerprints.get(mid)
        }
        plan = ReusePlan(dirty_methods=dirty_old)
        mapper = _EntryMapper(renames)
        inv_rw = (
            _Rewriter(renames.inverted()) if _has_renames(renames) else None
        )

        def back_field_key(key: str) -> str:
            # new-namespace field key -> the manifest's (old) namespace
            if inv_rw is None:
                return key
            cls, name, type_name = parse_field_key(key)
            f = inv_rw.field_sig(FieldSig(cls, name, parse_type(type_name)))
            return field_key(f.class_name, f.name, str(f.type))

        # Guard 3: added/changed methods that exist in the new program may
        # feed new argument taint into any method they call.  Guard 4:
        # compare each dirty method's per-field access hashes against the
        # manifest — only fields whose accessing statements actually
        # changed (or appeared, or vanished with the method) become dirty.
        old_mf = self.manifest["method_fields"]
        dirty_targets: set[str] = set()
        dirty_fields: set[str] = set()  # old-namespace field keys
        for mid in dirty_old:
            old_fields = old_mf.get(mid, {})
            new_fields: dict[str, str] = {}
            if mid in new_fingerprints:
                mid_new = mapper.mid(mid)
                try:
                    method = program.method_by_id(mid_new)
                except KeyError:
                    method = None
                if method is not None:
                    for site in callgraph.sites_in(mid_new):
                        dirty_targets |= callgraph.callees_of(site.ref)
                    new_fields = {
                        back_field_key(key): digest
                        for key, digest in method_field_hashes(
                            method
                        ).items()
                    }
            for key in old_fields.keys() | new_fields.keys():
                if old_fields.get(key) != new_fields.get(key):
                    dirty_fields.add(key)

        replayable: dict[str, dict] = {}
        for entry in self.manifest["dps"]:
            visited_old = dp_visited(entry)
            if visited_old & dirty_old:
                continue
            cached_fields = {
                field_key(c, n, t)
                for part in ("request", "response")
                for c, n, t in entry[part]["fields"]
            }
            if cached_fields & dirty_fields:
                continue
            mapped = mapper.entry(entry)
            visited_new = {mapper.mid(m) for m in visited_old}
            if dirty_targets & visited_new:
                continue
            replayable[mapped["key"]] = mapped

        for dp in scanned_dps:
            mapped = replayable.get(dp.key)
            if mapped is not None and dp_identity(dp) == {
                k: mapped[k]
                for k in (
                    "key",
                    "site",
                    "spec",
                    "listener_class",
                    "request_seeds",
                    "response_seeds",
                )
            }:
                plan.reused[dp.key] = DPSlices(
                    dp=dp,
                    request=slice_from_dict(mapped["request"]),
                    response=slice_from_dict(mapped["response"]),
                    seconds=0.0,
                )
            else:
                plan.dirty_dps.append(dp)
        return plan


__all__ = [
    "ReuseIndex",
    "ReusePlan",
    "fingerprints_in_base_namespace",
]
