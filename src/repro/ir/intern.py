"""Hash-consing of IR values: one object per distinct value per program.

A program repeats most of its values: ``this``, ``p0``, the call-site
signature of ``StringBuilder.append``, the constant ``0`` (DESIGN.md, "IR
representation", has the census).  Every producer of a program
(:mod:`repro.ir.builder`, the ``.sapk`` parser and the renaming rewriter)
builds its values through one :class:`Interner`, which hands back the
existing object for an equal value.  The table lives as long as its
producer builds one program and is dropped with it, so a process that
builds many programs keeps nothing of the ones it has finished.  Types
stay interned process-wide (:mod:`repro.ir.types`).

Values still compare and hash by their fields, so sharing changes no set
order and no output.  Probes must stay cheap, because emitting a program
makes one per value: a key holds strings and ints as they are and every
other part by its ``id()``, so it hashes in C instead of through the
dataclasses' Python-level ``__hash__``.  An ``id()`` in a key is sound
because the parts are types (alive for the process) or values this table
already holds, and the stored value keeps its parts alive while the key
exists.  A part built outside the table only costs a missed share.
"""

from __future__ import annotations

from .types import ClassType, Type
from .values import (
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
    NULL,
    NewArrayExpr,
    NewExpr,
    ParamRef,
    StaticFieldRef,
    StringConst,
    ThisRef,
    UnOpExpr,
    Value,
)


class Interner:
    """The table of one program's values, keyed by the value's class and
    its parts.  Each method takes a value's fields and returns the one
    object of that value."""

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[tuple, object] = {}

    def _add(self, key: tuple, value):
        # the methods below read ``get(key) or _add(...)``: a value
        # defines no __bool__ or __len__, so a stored one is always true
        self._table[key] = value
        return value

    # -- leaves --------------------------------------------------------------
    def local(self, name: str, type_: Type) -> Local:
        key = (Local, name, id(type_))
        return self._table.get(key) or self._add(key, Local(name, type_))

    def int_const(self, value: int) -> IntConst:
        key = (IntConst, value)
        return self._table.get(key) or self._add(key, IntConst(value))

    def double_const(self, value: float) -> DoubleConst:
        # by repr: 0.0 == -0.0, but the two print differently
        key = (DoubleConst, repr(value))
        return self._table.get(key) or self._add(key, DoubleConst(value))

    def string_const(self, value: str) -> StringConst:
        key = (StringConst, value)
        return self._table.get(key) or self._add(key, StringConst(value))

    def class_const(self, class_name: str) -> ClassConst:
        key = (ClassConst, class_name)
        return self._table.get(key) or self._add(key, ClassConst(class_name))

    def lift(self, v: Value | str | int | float | None) -> Value:
        """Lift a Python literal into an IR constant; pass values through."""
        if isinstance(v, Value):
            return v
        if v is None:
            return NULL
        if isinstance(v, bool):
            return self.int_const(int(v))
        if isinstance(v, int):
            return self.int_const(v)
        if isinstance(v, float):
            return self.double_const(v)
        if isinstance(v, str):
            return self.string_const(v)
        raise TypeError(f"cannot lift {v!r} into an IR value")

    # -- signatures --------------------------------------------------------
    def method_sig(
        self,
        class_name: str,
        name: str,
        param_types: tuple[Type, ...],
        return_type: Type,
    ) -> MethodSig:
        key = (MethodSig, class_name, name, id(return_type), *map(id, param_types))
        return self._table.get(key) or self._add(
            key, MethodSig(class_name, name, param_types, return_type)
        )

    def field_sig(self, class_name: str, name: str, type_: Type) -> FieldSig:
        key = (FieldSig, class_name, name, id(type_))
        return self._table.get(key) or self._add(
            key, FieldSig(class_name, name, type_)
        )

    # -- expressions ---------------------------------------------------------
    def new(self, class_type: ClassType) -> NewExpr:
        key = (NewExpr, id(class_type))
        return self._table.get(key) or self._add(key, NewExpr(class_type))

    def new_array(self, element_type: Type, size: Value) -> NewArrayExpr:
        key = (NewArrayExpr, id(element_type), id(size))
        return self._table.get(key) or self._add(
            key, NewArrayExpr(element_type, size)
        )

    def binop(self, op: str, left: Value, right: Value) -> BinOpExpr:
        key = (BinOpExpr, op, id(left), id(right))
        return self._table.get(key) or self._add(key, BinOpExpr(op, left, right))

    def unop(self, op: str, operand: Value) -> UnOpExpr:
        key = (UnOpExpr, op, id(operand))
        return self._table.get(key) or self._add(key, UnOpExpr(op, operand))

    def cast(self, to_type: Type, value: Value) -> CastExpr:
        key = (CastExpr, id(to_type), id(value))
        return self._table.get(key) or self._add(key, CastExpr(to_type, value))

    def instance_of(self, value: Value, check_type: Type) -> InstanceOfExpr:
        key = (InstanceOfExpr, id(value), id(check_type))
        return self._table.get(key) or self._add(
            key, InstanceOfExpr(value, check_type)
        )

    def length(self, array: Value) -> LengthExpr:
        key = (LengthExpr, id(array))
        return self._table.get(key) or self._add(key, LengthExpr(array))

    def instance_field(self, base: Value, field: FieldSig) -> InstanceFieldRef:
        key = (InstanceFieldRef, id(base), id(field))
        return self._table.get(key) or self._add(
            key, InstanceFieldRef(base, field)
        )

    def static_field(self, field: FieldSig) -> StaticFieldRef:
        key = (StaticFieldRef, id(field))
        return self._table.get(key) or self._add(key, StaticFieldRef(field))

    def array_ref(self, base: Value, index: Value) -> ArrayRef:
        key = (ArrayRef, id(base), id(index))
        return self._table.get(key) or self._add(key, ArrayRef(base, index))

    def invoke(
        self,
        kind: str,
        sig: MethodSig,
        base: Value | None,
        args: tuple[Value, ...] = (),
    ) -> InvokeExpr:
        key = (InvokeExpr, kind, id(sig), id(base), *map(id, args))
        return self._table.get(key) or self._add(
            key, InvokeExpr(kind, sig, base, args)
        )

    def param_ref(self, index: int, type_: Type) -> ParamRef:
        key = (ParamRef, index, id(type_))
        return self._table.get(key) or self._add(key, ParamRef(index, type_))

    def this_ref(self, type_: ClassType) -> ThisRef:
        key = (ThisRef, id(type_))
        return self._table.get(key) or self._add(key, ThisRef(type_))


__all__ = ["Interner"]
