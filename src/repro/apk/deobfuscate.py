"""Signature-similarity de-obfuscation of embedded library code (paper §3.4).

When an app ships a third-party HTTP/JSON library *inside* the APK and the
whole bundle is obfuscated, the semantic model's class/method names no
longer match.  Extractocol pre-processes the code to build a map between the
obfuscated identifiers and the originals by comparing *signature patterns*:
per-method structural fingerprints (parameter kinds, return kind, body
size, call fan-out) aggregated per class.  Ties are broken by comparing
the decompiled code — here, the statement-kind histogram.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..ir.classes import ClassDef
from ..ir.method import Method
from ..ir.program import Program
from ..ir.types import ArrayType, ClassType, PrimType, Type
from .rewrite import RenameMap


def _kind(t: Type, own_classes: set[str]) -> str:
    """Rename-invariant bucket for a type."""
    if isinstance(t, ArrayType):
        return _kind(t.element, own_classes) + "[]"
    if isinstance(t, PrimType):
        return t.name
    if isinstance(t, ClassType):
        if t.name in own_classes:
            return "@own"  # another class of the same library (renamed together)
        if t.name.startswith("java.") or t.name.startswith("android."):
            return t.name  # platform names survive obfuscation
        return "@ext"
    return "?"


def method_fingerprint(method: Method, own_classes: set[str]) -> tuple:
    """A structural fingerprint invariant under identifier renaming."""
    sig = method.sig
    params = tuple(sorted(_kind(p, own_classes) for p in sig.param_types))
    ret = _kind(sig.return_type, own_classes)
    size = len(method.body) if method.body is not None else 0
    calls = 0
    stmt_kinds: Counter[str] = Counter()
    if method.body is not None:
        for stmt in method.body:
            stmt_kinds[type(stmt).__name__] += 1
            if stmt.invoke is not None:
                calls += 1
    return (params, ret, method.is_static, size, calls, tuple(sorted(stmt_kinds.items())))


def class_fingerprint(cls: ClassDef, own_classes: set[str]) -> tuple:
    prints = sorted(method_fingerprint(m, own_classes) for m in cls.methods())
    return (len(cls.fields), tuple(prints))


@dataclass
class DeobfuscationMap:
    """Obfuscated → original identifier mapping plus match diagnostics."""

    renames: RenameMap = field(default_factory=RenameMap)
    matched_classes: int = 0
    ambiguous_classes: int = 0
    unmatched_classes: int = 0


def build_deobfuscation_map(
    obfuscated: Program,
    reference: Program,
    *,
    candidate_classes: list[str] | None = None,
) -> DeobfuscationMap:
    """Match obfuscated classes against a reference library program.

    ``reference`` contains the original (unobfuscated) library classes —
    in practice the analyst has the library jar; here the corpus keeps the
    pre-obfuscation program.  ``candidate_classes`` restricts which
    obfuscated classes are considered (default: all).
    """
    result = DeobfuscationMap()
    ref_classes = set(reference.classes)
    ref_by_print: dict[tuple, list[ClassDef]] = {}
    for cls in reference.classes.values():
        ref_by_print.setdefault(class_fingerprint(cls, ref_classes), []).append(cls)

    names = candidate_classes if candidate_classes is not None else list(obfuscated.classes)
    obf_classes = set(names)
    for name in names:
        cls = obfuscated.classes[name]
        candidates = ref_by_print.get(class_fingerprint(cls, obf_classes), [])
        if not candidates:
            result.unmatched_classes += 1
            continue
        if len(candidates) > 1:
            # "When there are multiple methods with the same signature, we
            # look at the decompiled code and look for similarity" — ties
            # are broken by exact method-multiset comparison; if still
            # ambiguous, take the deterministic first and flag it.
            result.ambiguous_classes += 1
        original = sorted(candidates, key=lambda c: c.name)[0]
        result.matched_classes += 1
        if original.name != name:
            result.renames.class_map[name] = original.name
        _match_members(cls, original, obf_classes, ref_classes, result.renames)
    return result


def _match_members(
    obf: ClassDef,
    orig: ClassDef,
    obf_classes: set[str],
    ref_classes: set[str],
    renames: RenameMap,
) -> None:
    orig_by_print: dict[tuple, list[Method]] = {}
    for m in orig.methods():
        orig_by_print.setdefault(method_fingerprint(m, ref_classes), []).append(m)
    for pool in orig_by_print.values():
        pool.sort(key=lambda c: c.name)
    for m in sorted(obf.methods(), key=lambda c: c.name):
        candidates = orig_by_print.get(method_fingerprint(m, obf_classes), [])
        if candidates:
            # each original is assigned at most once, so fingerprint ties
            # (e.g. structurally identical helpers) stay injective
            target = candidates.pop(0)
            if target.name != m.name and m.name not in renames.method_map:
                renames.method_map[m.name] = target.name
    # Fields: match by rename-invariant type kind, deterministically.
    obf_fields = sorted(obf.fields.values(), key=lambda f: f.name)
    orig_fields = sorted(orig.fields.values(), key=lambda f: f.name)
    orig_by_kind: dict[str, list] = {}
    for f in orig_fields:
        orig_by_kind.setdefault(_kind(f.type, ref_classes), []).append(f)
    for f in obf_fields:
        pool = orig_by_kind.get(_kind(f.type, obf_classes))
        if pool:
            target = pool.pop(0)
            if target.name != f.name and f.name not in renames.field_map:
                renames.field_map[f.name] = target.name


def apply_deobfuscation(program: Program, mapping: DeobfuscationMap) -> Program:
    from .rewrite import rename_program

    return rename_program(program, mapping.renames)


__all__ = [
    "DeobfuscationMap",
    "apply_deobfuscation",
    "build_deobfuscation_map",
    "class_fingerprint",
    "method_fingerprint",
]
