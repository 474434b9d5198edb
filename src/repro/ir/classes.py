"""Class definitions."""

from __future__ import annotations

from typing import Iterator

from .method import Method
from .types import OBJECT, Type
from .values import FieldSig, MethodSig


class ClassDef:
    """A class (or interface) in the program under analysis."""

    def __init__(
        self,
        name: str,
        *,
        superclass: str | None = OBJECT,
        interfaces: tuple[str, ...] = (),
        is_interface: bool = False,
    ) -> None:
        self.name = name
        self.superclass = None if name == OBJECT else superclass
        self.interfaces = interfaces
        self.is_interface = is_interface
        self.fields: dict[str, FieldSig] = {}
        self._methods: dict[tuple[str, tuple[Type, ...]], Method] = {}

    # -- fields ------------------------------------------------------------
    def add_field(self, sig: FieldSig) -> FieldSig:
        """Declare the field ``sig`` names (a producer passes the program's
        shared :class:`FieldSig`)."""
        if sig.name in self.fields:
            raise ValueError(f"duplicate field {self.name}.{sig.name}")
        self.fields[sig.name] = sig
        return sig

    def field(self, name: str) -> FieldSig:
        try:
            return self.fields[name]
        except KeyError:
            raise KeyError(f"no field {name!r} in {self.name}") from None

    # -- methods -----------------------------------------------------------
    def add_method(self, method: Method) -> Method:
        key = method.sig.subsignature
        if key in self._methods:
            raise ValueError(f"duplicate method {method.sig}")
        self._methods[key] = method
        return method

    def get_method(self, sig: MethodSig) -> Method | None:
        return self._methods.get(sig.subsignature)

    def find_methods(self, name: str) -> list[Method]:
        return [m for (n, _), m in self._methods.items() if n == name]

    def methods(self) -> Iterator[Method]:
        return iter(self._methods.values())

    def __repr__(self) -> str:
        return f"ClassDef({self.name})"


__all__ = ["ClassDef"]
