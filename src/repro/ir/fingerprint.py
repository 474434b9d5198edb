"""Content-hashed IR fingerprints (the change detector behind ``repro.incr``).

A method fingerprint is a sha256 over everything that can change the
method's *contribution to a slice*:

* the printed instruction stream (:func:`~repro.ir.printer.print_method`,
  the same deterministic text the ``.sapk`` bundle stores),
* the resolved call targets of every call site — CHA dispatch plus the
  implicit edges the async model injects — so a hierarchy change that adds
  or removes an override dirties every dispatching caller without any
  whole-program diffing,
* the hierarchy slice of the declaring class and of every class type the
  method mentions (receiver-typed demarcation matching and implicit
  callback receiver recovery both consult superclass chains),
* the method's asynchronous-event roots and framework-linked return
  continuations (§3.4 model state), and whether it is an entry point.

Two programs assigning the same fingerprint to a method are guaranteed to
give the taint engine an identical view of that method's body, outgoing
edges and event context.  Fingerprints are namespace-sensitive by design —
class renames change them — so cross-release comparison under obfuscation
first maps the new program back into the old namespace with
:func:`repro.apk.rewrite.rename_program`.

Fingerprinting prints every method, so an analysis runs
:func:`fingerprint_program` once and shares the map between the reuse plan
and its manifest (a renamed release also needs the base-namespace copy).
"""

from __future__ import annotations

import hashlib

from .method import Method
from .printer import print_method
from .program import Program
from .statements import StmtRef
from .types import ArrayType, ClassType, Type
from .values import FieldSig, InvokeExpr, walk_values


def _class_names_of(t: Type, out: set[str]) -> None:
    while isinstance(t, ArrayType):
        t = t.element
    if isinstance(t, ClassType):
        out.add(t.name)


def mentioned_classes(method: Method) -> set[str]:
    """Every class name whose hierarchy can influence how the engine treats
    ``method``: the declaring class, signature types, local/field types and
    static receiver classes of its invokes."""
    names: set[str] = {method.class_name}
    _class_names_of(method.sig.return_type, names)
    for p in method.sig.param_types:
        _class_names_of(p, names)
    if method.body is None:
        return names
    for local in method.body.locals.values():
        _class_names_of(local.type, names)
    for stmt in method.body:
        for top in (*stmt.defs(), *stmt.uses()):
            for value in walk_values(top):
                expr = value if isinstance(value, InvokeExpr) else None
                if expr is not None:
                    names.add(expr.sig.class_name)
                f = getattr(value, "field", None)
                if isinstance(f, FieldSig):
                    names.add(f.class_name)
                    _class_names_of(f.type, names)
    return names


def _hierarchy_line(program: Program, class_name: str) -> str:
    cls = program.class_of(class_name)
    chain = ",".join(program.superclasses(class_name))
    ifaces = ",".join(sorted(cls.interfaces)) if cls is not None else ""
    return f"{class_name}<{chain}|{ifaces}"


def fingerprint_method(
    method: Method,
    program: Program,
    callgraph,
    *,
    event_roots: dict[str, frozenset[str]] | None = None,
    linked_returns: dict[str, list[tuple[str, int]]] | None = None,
    entrypoint_ids: frozenset[str] | set[str] = frozenset(),
) -> str:
    """Deterministic sha256 fingerprint of one method (hex digest)."""
    mid = method.method_id
    h = hashlib.sha256()
    h.update(print_method(method).encode("utf-8"))
    h.update(b"\x00targets\x00")
    if method.body is not None:
        for idx, stmt in enumerate(method.body):
            if stmt.invoke is None:
                continue
            ref = StmtRef(mid, idx)
            targets = sorted(callgraph.callees_of(ref))
            lib = "L" if callgraph.is_library_call(ref) else "-"
            h.update(f"{idx}:{lib}:{';'.join(targets)}\n".encode("utf-8"))
    h.update(b"\x00hierarchy\x00")
    for name in sorted(mentioned_classes(method)):
        h.update(_hierarchy_line(program, name).encode("utf-8"))
        h.update(b"\n")
    h.update(b"\x00events\x00")
    roots = (event_roots or {}).get(mid)
    if roots:
        h.update(",".join(sorted(roots)).encode("utf-8"))
    h.update(b"\x00linked\x00")
    for succ, p_idx in (linked_returns or {}).get(mid, ()):
        h.update(f"{succ}#{p_idx}\n".encode("utf-8"))
    h.update(b"\x00entry\x00")
    h.update(b"1" if mid in entrypoint_ids else b"0")
    return h.hexdigest()


def fingerprint_program(
    program: Program,
    callgraph,
    *,
    event_roots: dict[str, frozenset[str]] | None = None,
    linked_returns: dict[str, list[tuple[str, int]]] | None = None,
    entrypoint_ids: frozenset[str] | set[str] = frozenset(),
) -> dict[str, str]:
    """method_id -> fingerprint for a whole program.  Call *after* the
    async model and demarcation scan ran, so the call graph already carries
    its implicit edges."""
    entry = frozenset(entrypoint_ids)
    return {
        m.method_id: fingerprint_method(
            m,
            program,
            callgraph,
            event_roots=event_roots,
            linked_returns=linked_returns,
            entrypoint_ids=entry,
        )
        for m in program.methods()
    }


__all__ = [
    "fingerprint_method",
    "fingerprint_program",
    "mentioned_classes",
]
