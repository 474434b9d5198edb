"""Values and expressions of the IR.

The IR follows Jimple's shape: statements operate on *values*.  A value is
either a :class:`Local`, a constant, or a composite expression (invoke,
field/array reference, binary operation, allocation, ...).  Expressions are
flat — their operands are locals or constants, never nested expressions —
which keeps every later analysis (slicing, tainting, signature building)
a simple walk over statement operands.

Values are immutable slotted dataclasses that compare and hash by their
fields.  The producers of a program (:mod:`repro.ir.builder`, the
``.sapk`` parser and :mod:`repro.apk.rewrite`) build each distinct value
once per program through an :class:`~repro.ir.intern.Interner`, so one
object stands for every occurrence of, say, a local across the bodies of
its program.  Compare values with ``==``, never ``is``: a value built
outside a producer is equal to, but not the same object as, the shared
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .types import ClassType, Type, class_t, parse_type


@dataclass(frozen=True, slots=True)
class FieldSig:
    """A field reference: declaring class, field name and field type."""

    class_name: str
    name: str
    type: Type

    def __str__(self) -> str:
        return f"<{self.class_name}: {self.type} {self.name}>"


@dataclass(frozen=True, slots=True)
class MethodSig:
    """A method signature used by invoke expressions and semantic models.

    ``class_name`` is the *static* receiver class of the call site; virtual
    dispatch resolves the actual target against the class hierarchy.
    """

    class_name: str
    name: str
    param_types: tuple[Type, ...]
    return_type: Type

    @staticmethod
    def of(
        class_name: str,
        name: str,
        params: tuple[str | Type, ...] | list[str | Type] = (),
        returns: str | Type = "void",
    ) -> "MethodSig":
        return MethodSig(
            class_name,
            name,
            tuple(parse_type(p) for p in params),
            parse_type(returns),
        )

    @property
    def subsignature(self) -> tuple[str, tuple[Type, ...]]:
        """Name + parameter types — the dispatch key within a class."""
        return (self.name, self.param_types)

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.name}"

    def __str__(self) -> str:
        params = ",".join(str(p) for p in self.param_types)
        return f"<{self.class_name}: {self.return_type} {self.name}({params})>"


class Value:
    """Base class of all IR values."""

    __slots__ = ()

    def operands(self) -> Iterator["Value"]:
        """Direct sub-values read when this value is evaluated."""
        return iter(())


@dataclass(frozen=True, slots=True)
class Local(Value):
    """A method-local variable (SSA is *not* required)."""

    name: str
    type: Type
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # hashing recurses through Type, so cache it; it is still the hash
        # of the compared fields' tuple, which keeps set order unchanged
        object.__setattr__(self, "_hash", hash((self.name, self.type)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


class Constant(Value):
    """Base class for literal constants."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntConst(Constant):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class DoubleConst(Constant):
    value: float

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class StringConst(Constant):
    value: str

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class NullConst(Constant):
    def __str__(self) -> str:
        return "null"


NULL = NullConst()


@dataclass(frozen=True, slots=True)
class ClassConst(Constant):
    """A ``Foo.class`` literal; used by reflection-based JSON binding."""

    class_name: str

    def __str__(self) -> str:
        return f"class {self.class_name}"


class Expr(Value):
    """Base class for composite right-hand-side expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class NewExpr(Expr):
    """Object allocation (``new C``); initialisation is a separate
    ``<init>`` invoke, exactly as in Jimple."""

    class_type: ClassType

    def __str__(self) -> str:
        return f"new {self.class_type}"


@dataclass(frozen=True, slots=True)
class NewArrayExpr(Expr):
    element_type: Type
    size: Value

    def operands(self) -> Iterator[Value]:
        yield self.size

    def __str__(self) -> str:
        return f"new {self.element_type}[{self.size}]"


@dataclass(frozen=True, slots=True)
class BinOpExpr(Expr):
    """Binary operation.  ``op`` is one of ``+ - * / % == != < <= > >= && ||``.

    String concatenation via ``+`` is legal and is the untyped shorthand the
    corpus frontend uses; the semantic models treat it as ``concat``.
    """

    op: str
    left: Value
    right: Value

    def operands(self) -> Iterator[Value]:
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class UnOpExpr(Expr):
    op: str
    operand: Value

    def operands(self) -> Iterator[Value]:
        yield self.operand

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


@dataclass(frozen=True, slots=True)
class CastExpr(Expr):
    to_type: Type
    value: Value

    def operands(self) -> Iterator[Value]:
        yield self.value

    def __str__(self) -> str:
        return f"({self.to_type}) {self.value}"


@dataclass(frozen=True, slots=True)
class InstanceOfExpr(Expr):
    value: Value
    check_type: Type

    def operands(self) -> Iterator[Value]:
        yield self.value

    def __str__(self) -> str:
        return f"{self.value} instanceof {self.check_type}"


@dataclass(frozen=True, slots=True)
class LengthExpr(Expr):
    array: Value

    def operands(self) -> Iterator[Value]:
        yield self.array

    def __str__(self) -> str:
        return f"lengthof {self.array}"


@dataclass(frozen=True, slots=True)
class InstanceFieldRef(Expr):
    base: Value
    field: FieldSig

    def operands(self) -> Iterator[Value]:
        yield self.base

    def __str__(self) -> str:
        return f"{self.base}.{self.field}"


@dataclass(frozen=True, slots=True)
class StaticFieldRef(Expr):
    field: FieldSig

    def __str__(self) -> str:
        return str(self.field)


@dataclass(frozen=True, slots=True)
class ArrayRef(Expr):
    base: Value
    index: Value

    def operands(self) -> Iterator[Value]:
        yield self.base
        yield self.index

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


INVOKE_KINDS = ("virtual", "special", "static", "interface")


@dataclass(frozen=True, slots=True)
class InvokeExpr(Expr):
    """A method call.  ``base`` is ``None`` for static invokes."""

    kind: str
    sig: MethodSig
    base: Value | None
    args: tuple[Value, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in INVOKE_KINDS:
            raise ValueError(f"bad invoke kind {self.kind!r}")
        if (self.base is None) != (self.kind == "static"):
            raise ValueError("base must be present iff the invoke is non-static")

    def operands(self) -> Iterator[Value]:
        if self.base is not None:
            yield self.base
        yield from self.args

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        recv = f"{self.base}." if self.base is not None else ""
        return f"{self.kind}invoke {recv}{self.sig}({args})"


@dataclass(frozen=True, slots=True)
class ParamRef(Expr):
    """Right-hand side of an identity statement binding parameter ``index``."""

    index: int
    type: Type

    def __str__(self) -> str:
        return f"@parameter{self.index}: {self.type}"


@dataclass(frozen=True, slots=True)
class ThisRef(Expr):
    """Right-hand side of the identity statement binding ``this``."""

    type: ClassType

    def __str__(self) -> str:
        return f"@this: {self.type}"


def field_sig(class_name: str, name: str, type_name: str | Type) -> FieldSig:
    """Convenience constructor mirroring :meth:`MethodSig.of`."""
    return FieldSig(class_name, name, parse_type(type_name))


def walk_values(value: Value) -> Iterator[Value]:
    """Yield ``value`` and, recursively, every operand it reads."""
    yield value
    for op in value.operands():
        yield from walk_values(op)


__all__ = [
    "ArrayRef",
    "BinOpExpr",
    "CastExpr",
    "ClassConst",
    "Constant",
    "DoubleConst",
    "Expr",
    "FieldSig",
    "InstanceFieldRef",
    "InstanceOfExpr",
    "IntConst",
    "InvokeExpr",
    "LengthExpr",
    "Local",
    "MethodSig",
    "NULL",
    "NewArrayExpr",
    "NewExpr",
    "NullConst",
    "ParamRef",
    "StaticFieldRef",
    "StringConst",
    "ThisRef",
    "UnOpExpr",
    "Value",
    "field_sig",
    "walk_values",
]
