"""Statements of the IR.

A method body is a flat list of statements.  Control flow uses symbolic
labels resolved by the :class:`~repro.ir.method.Body`.  Every statement
exposes ``defs()``/``uses()`` so the taint engine and slicer can treat the
IR uniformly, and ``invoke`` for call-site handling.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .values import (
    ArrayRef,
    Expr,
    InstanceFieldRef,
    InvokeExpr,
    Local,
    StaticFieldRef,
    Value,
    walk_values,
)

#: Value kinds allowed on the left-hand side of an assignment.
LValue = Local | InstanceFieldRef | StaticFieldRef | ArrayRef


class Stmt:
    """Base class of all statements.

    ``index`` is the statement's position within its body; it is assigned by
    :class:`~repro.ir.method.Body` and doubles as the statement's identity
    within slices.
    """

    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index: int = -1

    # -- generic accessors ------------------------------------------------
    def defs(self) -> Iterator[Value]:
        """Values (re)defined by this statement."""
        return iter(())

    def uses(self) -> Iterator[Value]:
        """Top-level values read by this statement."""
        return iter(())

    def all_used_values(self) -> Iterator[Value]:
        """``uses()`` expanded recursively into operands."""
        for use in self.uses():
            yield from walk_values(use)

    @property
    def invoke(self) -> InvokeExpr | None:
        """The call expression contained in this statement, if any."""
        return None

    def branch_targets(self) -> tuple[str, ...]:
        """Symbolic labels this statement may jump to."""
        return ()

    @property
    def falls_through(self) -> bool:
        """Whether control may continue to the next statement."""
        return True


class AssignStmt(Stmt):
    """``target = rhs``.

    ``target`` is a local, field ref or array ref; ``rhs`` is any value.
    Writes through a field/array target also *use* the base object.
    """

    __slots__ = ("target", "rhs")

    def __init__(self, target: LValue, rhs: Value) -> None:
        super().__init__()
        if not isinstance(target, (Local, InstanceFieldRef, StaticFieldRef, ArrayRef)):
            raise TypeError(f"bad assignment target: {target!r}")
        self.target = target
        self.rhs = rhs

    def defs(self) -> Iterator[Value]:
        yield self.target

    def uses(self) -> Iterator[Value]:
        yield self.rhs
        # The base object of a field/array store is read, not defined.
        if isinstance(self.target, (InstanceFieldRef, ArrayRef)):
            yield from self.target.operands()

    @property
    def invoke(self) -> InvokeExpr | None:
        return self.rhs if isinstance(self.rhs, InvokeExpr) else None

    def __str__(self) -> str:
        return f"{self.target} = {self.rhs}"


class IdentityStmt(Stmt):
    """Binds a parameter or ``this`` to a local (Jimple identity statement)."""

    __slots__ = ("target", "rhs")

    def __init__(self, target: Local, rhs: Expr) -> None:
        super().__init__()
        self.target = target
        self.rhs = rhs

    def defs(self) -> Iterator[Value]:
        yield self.target

    def uses(self) -> Iterator[Value]:
        yield self.rhs

    def __str__(self) -> str:
        return f"{self.target} := {self.rhs}"


class InvokeStmt(Stmt):
    """A call whose result (if any) is discarded."""

    __slots__ = ("expr",)

    def __init__(self, expr: InvokeExpr) -> None:
        super().__init__()
        self.expr = expr

    def uses(self) -> Iterator[Value]:
        yield self.expr

    @property
    def invoke(self) -> InvokeExpr | None:
        return self.expr

    def __str__(self) -> str:
        return str(self.expr)


class IfStmt(Stmt):
    """``if cond goto label`` — conditional branch; falls through otherwise."""

    __slots__ = ("condition", "target")

    def __init__(self, condition: Value, target: str) -> None:
        super().__init__()
        self.condition = condition
        self.target = target

    def uses(self) -> Iterator[Value]:
        yield self.condition

    def branch_targets(self) -> tuple[str, ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"if {self.condition} goto {self.target}"


class GotoStmt(Stmt):
    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        super().__init__()
        self.target = target

    def branch_targets(self) -> tuple[str, ...]:
        return (self.target,)

    @property
    def falls_through(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"goto {self.target}"


class ReturnStmt(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Value | None = None) -> None:
        super().__init__()
        self.value = value

    def uses(self) -> Iterator[Value]:
        if self.value is not None:
            yield self.value

    @property
    def falls_through(self) -> bool:
        return False

    def __str__(self) -> str:
        return "return" if self.value is None else f"return {self.value}"


class ThrowStmt(Stmt):
    """Raise an exception.  The reproduction does not model catch edges;
    a throw simply terminates the flow, which is sufficient for protocol
    slicing (exception paths never build messages in the corpus)."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        super().__init__()
        self.value = value

    def uses(self) -> Iterator[Value]:
        yield self.value

    @property
    def falls_through(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"throw {self.value}"


class NopStmt(Stmt):
    """No-op; label anchors and slice padding."""

    __slots__ = ()

    def __str__(self) -> str:
        return "nop"


class StmtRef(NamedTuple):
    """A globally unique reference to one statement: (method, index).

    Program slices, taint traces and dependency edges are sets of StmtRefs,
    which keeps them hashable and independent of object identity.  As a
    tuple it hashes and compares in C, and it hashes like the plain tuple
    ``(method_id, index)``.
    """

    method_id: str
    index: int

    def __str__(self) -> str:
        return f"{self.method_id}#{self.index}"


__all__ = [
    "AssignStmt",
    "GotoStmt",
    "IdentityStmt",
    "IfStmt",
    "InvokeStmt",
    "LValue",
    "NopStmt",
    "ReturnStmt",
    "Stmt",
    "StmtRef",
    "ThrowStmt",
]
