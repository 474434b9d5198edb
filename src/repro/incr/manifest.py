"""Per-app method-hash manifests: the durable side of incremental analysis.

A manifest records, for the latest analyzed release of one (app name,
semantic config) pair, only what the reuse plan reads:

* the content-hashed fingerprint of every method
  (:mod:`repro.ir.fingerprint`), the map the analysis computed once,
* per method, a content hash of the statements touching each heap cell,
* a slim, JSON-safe replica of every demarcation-point slice — exactly the
  statement/flow sets later phases consume, *not* the provenance parents.

It is stored beside the report envelope in the
:class:`~repro.service.store.ResultStore` (its envelope carries no
``"report"`` key, so report listings never see it) and is all a warm run
needs: the :class:`~repro.incr.reuse.ReuseIndex` diffs fingerprints and
replays the slim slices of untouched demarcation points.
"""

from __future__ import annotations

import hashlib

from ..ir.statements import StmtRef
from ..ir.types import parse_type
from ..ir.values import (
    Constant,
    FieldSig,
    InstanceFieldRef,
    Local,
    StaticFieldRef,
    Value,
)
from ..taint.slices import SliceResult

#: bump when a key the planner reads or the fingerprint recipe changes; a
#: mismatch makes stored manifests invisible (full re-analysis, never
#: stale reuse).  Dropping keys nothing reads needs no bump.
MANIFEST_SCHEMA = 1


# -- seeds -----------------------------------------------------------------
def seed_token(ref: StmtRef, value: Value) -> str:
    """A comparable, JSON-safe token for one (statement, value) seed."""
    if isinstance(value, Local):
        v = f"l:{value.name}:{value.type}"
    elif isinstance(value, Constant):
        v = f"c:{value}"
    else:
        v = f"v:{value}"
    return f"{ref.method_id}#{ref.index}|{v}"


def dp_identity(dp) -> dict:
    """The parts of a scanned :class:`DPInstance` a cached slice must match
    before replay is even considered: same spec at the same site with the
    same seeds (a changed seed means changed slicing input)."""
    return {
        "key": dp.key,
        "site": [dp.site.method_id, dp.site.index],
        "spec": [dp.spec.class_name, dp.spec.method_name],
        "listener_class": dp.listener_class,
        "request_seeds": sorted(
            seed_token(r, v) for r, v in dp.request_seeds
        ),
        "response_seeds": sorted(
            seed_token(r, v) for r, v in dp.response_seeds
        ),
    }


# -- slices ----------------------------------------------------------------
def _ref_pair(ref: StmtRef) -> list:
    return [ref.method_id, ref.index]


def slice_to_dict(sl: SliceResult) -> dict:
    """JSON-safe slim form of one slice — everything phases 2/3 read
    (statements, flows, heap cells) plus the visited set the reuse check
    needs.  Provenance parents are dropped: only ``repro explain`` walks
    them, and it always slices afresh."""
    return {
        "direction": sl.direction,
        "stmts": sorted(_ref_pair(r) for r in sl.stmts),
        "call_edges": sorted(
            [r.method_id, r.index, tgt] for r, tgt in sl.call_edges
        ),
        "fields": sorted(
            [f.class_name, f.name, str(f.type)] for f in sl.fields
        ),
        "missed": sorted(_ref_pair(r) for r in sl.missed_async_flows),
        "visited": sorted(sl.visited),
        "stats": {k: sl.stats[k] for k in sorted(sl.stats)},
    }


def slice_from_dict(data: dict) -> SliceResult:
    """The slice :func:`slice_to_dict` wrote, with no provenance parents.
    Keys it does not read are ignored, so a manifest written while slices
    carried more keys still replays."""
    return SliceResult(
        direction=data["direction"],
        stmts=dict.fromkeys(StmtRef(m, i) for m, i in data["stmts"]),
        call_edges={
            (StmtRef(m, i), tgt) for m, i, tgt in data["call_edges"]
        },
        fields={
            FieldSig(c, n, parse_type(t)) for c, n, t in data["fields"]
        },
        missed_async_flows={StmtRef(m, i) for m, i in data["missed"]},
        visited=set(data["visited"]),
        stats=dict(data["stats"]),
    )


def dp_to_dict(slices) -> dict:
    """Slim form of one :class:`DPSlices` (identity + both slices)."""
    out = dp_identity(slices.dp)
    out["request"] = slice_to_dict(slices.request)
    out["response"] = slice_to_dict(slices.response)
    return out


def field_key(class_name: str, name: str, type_name: str) -> str:
    return f"{class_name}|{name}|{type_name}"


def parse_field_key(key: str) -> tuple[str, str, str]:
    cls, name, type_name = key.split("|", 2)
    return cls, name, type_name


def method_field_hashes(method) -> dict[str, str]:
    """Per heap cell the method stores or loads, a content hash of every
    statement touching it.  The reuse check compares these across versions:
    an edit that leaves a field's accessing statements byte-identical
    cannot change how field-based taint flows through that cell, so slices
    coupled only through the cell stay replayable (guard 4 precision)."""
    touched: dict[str, list[str]] = {}
    if method.body is None:
        return {}
    for stmt in method.body:
        keys = {
            field_key(v.field.class_name, v.field.name, str(v.field.type))
            for v in (*stmt.defs(), *stmt.uses())
            if isinstance(v, (InstanceFieldRef, StaticFieldRef))
        }
        for key in keys:
            touched.setdefault(key, []).append(str(stmt))
    return {
        key: hashlib.sha256("\n".join(stmts).encode("utf-8")).hexdigest()[:16]
        for key, stmts in touched.items()
    }


def program_field_hashes(program) -> dict[str, dict[str, str]]:
    """``method_field_hashes`` for every method with heap accesses."""
    out: dict[str, dict[str, str]] = {}
    for method in program.methods():
        hashes = method_field_hashes(method)
        if hashes:
            out[method.method_id] = hashes
    return out


def dp_visited(entry: dict) -> set[str]:
    """Every method whose change invalidates this cached DP slice."""
    out = set(entry["request"]["visited"])
    out |= set(entry["response"]["visited"])
    out.add(entry["site"][0])
    for token in (*entry["request_seeds"], *entry["response_seeds"]):
        out.add(token.split("#", 1)[0])
    return out


# -- the manifest ----------------------------------------------------------
def build_manifest(
    *,
    app: str,
    config_key: str,
    methods: dict[str, str],
    program,
    slicing=None,
) -> dict:
    """Roll method fingerprints + slim DP slices into one storable manifest.

    ``methods`` is ``fingerprint_program`` over the analyzed program after
    the demarcation scan, whose implicit edges are fingerprint inputs."""
    return {
        "schema": MANIFEST_SCHEMA,
        "app": app,
        "config_key": config_key,
        "methods": methods,
        "method_fields": program_field_hashes(program),
        "dps": [
            dp_to_dict(s) for s in (slicing.slices if slicing else ())
        ],
    }


__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "dp_identity",
    "dp_to_dict",
    "dp_visited",
    "field_key",
    "method_field_hashes",
    "parse_field_key",
    "program_field_hashes",
    "seed_token",
    "slice_from_dict",
    "slice_to_dict",
]
