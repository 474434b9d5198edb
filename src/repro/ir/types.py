"""Type system for the Jimple-style intermediate representation.

Extractocol operates at the Jimple level (a typed three-address code used by
Soot), not on raw Dalvik bytecode.  This module provides the small type
lattice that the IR, the taint engine and the semantic models share:
primitive types, class (reference) types and array types.

Types are interned so they can be compared with ``==`` or ``is`` freely and
used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Type:
    """Base class for all IR types."""

    name: str

    def __str__(self) -> str:
        return self.name

    @property
    def is_reference(self) -> bool:
        return isinstance(self, (ClassType, ArrayType))

    @property
    def is_primitive(self) -> bool:
        return isinstance(self, PrimType)


@dataclass(frozen=True, slots=True)
class PrimType(Type):
    """A JVM primitive type (``int``, ``boolean``, ...) or ``void``."""


@dataclass(frozen=True, slots=True)
class ClassType(Type):
    """A reference type identified by its fully qualified class name."""

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    @property
    def package(self) -> str:
        head, _, _ = self.name.rpartition(".")
        return head


@dataclass(frozen=True, slots=True)
class ArrayType(Type):
    """An array type; ``element`` is the element type."""

    element: Type

    @property
    def dimensions(self) -> int:
        if isinstance(self.element, ArrayType):
            return 1 + self.element.dimensions
        return 1


VOID = PrimType("void")
INT = PrimType("int")
LONG = PrimType("long")
FLOAT = PrimType("float")
DOUBLE = PrimType("double")
BOOLEAN = PrimType("boolean")
CHAR = PrimType("char")
BYTE = PrimType("byte")
SHORT = PrimType("short")

_PRIMITIVES = {
    t.name: t
    for t in (VOID, INT, LONG, FLOAT, DOUBLE, BOOLEAN, CHAR, BYTE, SHORT)
}

_CLASS_CACHE: dict[str, ClassType] = {}
_ARRAY_CACHE: dict[str, ArrayType] = {}

OBJECT = "java.lang.Object"
STRING = "java.lang.String"


def class_t(name: str) -> ClassType:
    """Return the interned :class:`ClassType` for ``name``."""
    cached = _CLASS_CACHE.get(name)
    if cached is None:
        cached = ClassType(name)
        _CLASS_CACHE[name] = cached
    return cached


def array_t(element: Type | str) -> ArrayType:
    """Return the interned array type whose element type is ``element``."""
    elem = parse_type(element) if isinstance(element, str) else element
    name = elem.name + "[]"
    cached = _ARRAY_CACHE.get(name)
    if cached is None:
        cached = ArrayType(name, elem)
        _ARRAY_CACHE[name] = cached
    return cached


def parse_type(name: str | Type) -> Type:
    """Parse a type from its source-style name.

    Accepts primitive names (``int``), fully qualified class names
    (``java.lang.String``) and array suffixes (``byte[]``, ``int[][]``).
    A :class:`Type` instance passes through unchanged.
    """
    if isinstance(name, Type):
        return name
    name = name.strip()
    if name.endswith("[]"):
        return array_t(parse_type(name[:-2]))
    prim = _PRIMITIVES.get(name)
    if prim is not None:
        return prim
    if not name:
        raise ValueError("empty type name")
    return class_t(name)


OBJECT_T = class_t(OBJECT)
STRING_T = class_t(STRING)
