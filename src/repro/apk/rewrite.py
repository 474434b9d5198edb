"""Whole-program renaming — the transformation substrate for the
ProGuard-like obfuscator and the de-obfuscation mapper.

The IR is immutable, so renaming rebuilds the program: every type, method
signature, field signature and value is mapped structurally, and the
renamed program's values are built through one
:class:`~repro.ir.intern.Interner`, like any other program's.  Renames are
expressed as three maps:

* ``class_map``: old fully-qualified class name → new name,
* ``method_map``: old method name → new name (global, hierarchy-consistent),
* ``field_map``: old field name → new name (global).

Method/field renames only apply where the *declaring* (call-site static)
class is itself renamed, so library calls such as ``StringBuilder.append``
are never touched — matching how ProGuard keeps framework references intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.classes import ClassDef
from ..ir.intern import Interner
from ..ir.method import Body, Method
from ..ir.program import Program
from ..ir.statements import (
    AssignStmt,
    GotoStmt,
    IdentityStmt,
    IfStmt,
    InvokeStmt,
    NopStmt,
    ReturnStmt,
    Stmt,
    ThrowStmt,
)
from ..ir.types import ArrayType, ClassType, Type, array_t, class_t
from ..ir.values import (
    ArrayRef,
    BinOpExpr,
    CastExpr,
    ClassConst,
    DoubleConst,
    FieldSig,
    InstanceFieldRef,
    InstanceOfExpr,
    IntConst,
    InvokeExpr,
    LengthExpr,
    Local,
    MethodSig,
    NewArrayExpr,
    NewExpr,
    ParamRef,
    StaticFieldRef,
    StringConst,
    ThisRef,
    UnOpExpr,
    Value,
)


@dataclass
class RenameMap:
    class_map: dict[str, str] = field(default_factory=dict)
    method_map: dict[str, str] = field(default_factory=dict)
    field_map: dict[str, str] = field(default_factory=dict)

    def cls(self, name: str) -> str:
        return self.class_map.get(name, name)

    def method(self, class_name: str, name: str) -> str:
        if class_name in self.class_map:
            return self.method_map.get(name, name)
        return name

    def fld(self, class_name: str, name: str) -> str:
        if class_name in self.class_map:
            return self.field_map.get(name, name)
        return name

    def inverted(self) -> "RenameMap":
        return RenameMap(
            class_map={v: k for k, v in self.class_map.items()},
            method_map={v: k for k, v in self.method_map.items()},
            field_map={v: k for k, v in self.field_map.items()},
        )


class _Rewriter:
    """Maps one program through ``renames`` into a new program's values.

    Each source value is mapped once: ``_mapped`` keys it by ``id()``,
    which is sound while the source program, which holds it, is alive."""

    def __init__(self, renames: RenameMap) -> None:
        self.r = renames
        self.values = Interner()
        self._mapped: dict[int, Value] = {}

    # -- types ------------------------------------------------------------
    def type(self, t: Type) -> Type:
        if isinstance(t, ArrayType):
            return array_t(self.type(t.element))
        if isinstance(t, ClassType):
            return class_t(self.r.cls(t.name))
        return t

    def method_sig(self, sig: MethodSig) -> MethodSig:
        return self.values.method_sig(
            self.r.cls(sig.class_name),
            self.r.method(sig.class_name, sig.name),
            tuple(map(self.type, sig.param_types)),
            self.type(sig.return_type),
        )

    def field_sig(self, sig: FieldSig) -> FieldSig:
        return self.values.field_sig(
            self.r.cls(sig.class_name),
            self.r.fld(sig.class_name, sig.name),
            self.type(sig.type),
        )

    # -- values ------------------------------------------------------------
    def value(self, v: Value) -> Value:
        mapped = self._mapped.get(id(v))
        if mapped is None:
            mapped = self._mapped[id(v)] = self._map(v)
        return mapped

    def _map(self, v: Value) -> Value:
        values = self.values
        if isinstance(v, Local):
            return values.local(v.name, self.type(v.type))
        if isinstance(v, NewExpr):
            mapped = self.type(v.class_type)
            assert isinstance(mapped, ClassType)
            return values.new(mapped)
        if isinstance(v, NewArrayExpr):
            return values.new_array(self.type(v.element_type), self.value(v.size))
        if isinstance(v, BinOpExpr):
            return values.binop(v.op, self.value(v.left), self.value(v.right))
        if isinstance(v, UnOpExpr):
            return values.unop(v.op, self.value(v.operand))
        if isinstance(v, CastExpr):
            return values.cast(self.type(v.to_type), self.value(v.value))
        if isinstance(v, InstanceOfExpr):
            return values.instance_of(self.value(v.value), self.type(v.check_type))
        if isinstance(v, LengthExpr):
            return values.length(self.value(v.array))
        if isinstance(v, InstanceFieldRef):
            return values.instance_field(self.value(v.base), self.field_sig(v.field))
        if isinstance(v, StaticFieldRef):
            return values.static_field(self.field_sig(v.field))
        if isinstance(v, ArrayRef):
            return values.array_ref(self.value(v.base), self.value(v.index))
        if isinstance(v, InvokeExpr):
            base = self.value(v.base) if v.base is not None else None
            return values.invoke(
                v.kind,
                self.method_sig(v.sig),
                base,
                tuple(map(self.value, v.args)),
            )
        if isinstance(v, ThisRef):
            mapped = self.type(v.type)
            assert isinstance(mapped, ClassType)
            return values.this_ref(mapped)
        if isinstance(v, ParamRef):
            return values.param_ref(v.index, self.type(v.type))
        if isinstance(v, ClassConst):
            return values.class_const(self.r.cls(v.class_name))
        if isinstance(v, IntConst):
            return values.int_const(v.value)
        if isinstance(v, StringConst):
            return values.string_const(v.value)
        if isinstance(v, DoubleConst):
            return values.double_const(v.value)
        return v  # NULL

    # -- statements --------------------------------------------------------
    def stmt(self, s: Stmt) -> Stmt:
        if isinstance(s, AssignStmt):
            return AssignStmt(self.value(s.target), self.value(s.rhs))  # type: ignore[arg-type]
        if isinstance(s, IdentityStmt):
            return IdentityStmt(self.value(s.target), self.value(s.rhs))  # type: ignore[arg-type]
        if isinstance(s, InvokeStmt):
            expr = self.value(s.expr)
            assert isinstance(expr, InvokeExpr)
            return InvokeStmt(expr)
        if isinstance(s, IfStmt):
            return IfStmt(self.value(s.condition), s.target)
        if isinstance(s, GotoStmt):
            return GotoStmt(s.target)
        if isinstance(s, ReturnStmt):
            return ReturnStmt(self.value(s.value) if s.value is not None else None)
        if isinstance(s, ThrowStmt):
            return ThrowStmt(self.value(s.value))
        if isinstance(s, NopStmt):
            return NopStmt()
        raise TypeError(f"unhandled statement type {type(s).__name__}")


def rename_program(program: Program, renames: RenameMap) -> Program:
    """Return a structurally identical program with identifiers renamed."""
    out = Program()
    rw = _Rewriter(renames)
    for cls in program.classes.values():
        superclass = renames.cls(cls.superclass) if cls.superclass else cls.superclass
        new_cls = ClassDef(
            renames.cls(cls.name),
            superclass=superclass,
            interfaces=tuple(renames.cls(i) for i in cls.interfaces),
            is_interface=cls.is_interface,
        )
        for fld in cls.fields.values():
            new_cls.add_field(rw.field_sig(fld))
        for method in cls.methods():
            new_sig = rw.method_sig(method.sig)
            if method.body is None:
                new_cls.add_method(
                    Method(new_sig, is_static=method.is_static, is_abstract=True, body=None)
                )
                continue
            new_body = Body()
            for local in method.body.locals.values():
                new_body.declare_local(rw.value(local))
            new_method = Method(new_sig, is_static=method.is_static, body=new_body)
            for stmt in method.body:
                new_body.add(rw.stmt(stmt))
            new_body.labels = dict(method.body.labels)
            new_body._sealed = True
            new_method.param_locals = [rw.value(p) for p in method.param_locals]
            new_method.this_local = (
                rw.value(method.this_local) if method.this_local else None
            )
            new_cls.add_method(new_method)
        out.add_class(new_cls)
    return out


def rename_method_id(method_id: str, renames: RenameMap, program: Program) -> str:
    """Map a ``method_id`` string (``str(MethodSig)``) through the renames."""
    from ..ir.parser import _SIG_RE  # shared signature grammar
    from ..ir.types import parse_type

    m = _SIG_RE.match(method_id)
    if not m:
        raise ValueError(f"bad method id {method_id!r}")
    sig = MethodSig(
        m.group("cls"),
        m.group("name"),
        tuple(
            parse_type(p.strip())
            for p in m.group("params").split(",")
            if p.strip()
        ),
        parse_type(m.group("ret")),
    )
    return str(_Rewriter(renames).method_sig(sig))


__all__ = ["RenameMap", "rename_method_id", "rename_program"]
