"""Methods and method bodies."""

from __future__ import annotations

from typing import Iterator

from .statements import Stmt, StmtRef
from .types import Type
from .values import Local, MethodSig


class UndefinedLabel(LookupError):
    """A branch names a label its body does not define: a malformed
    program (lint rule IR002), which no analysis can walk."""


class Body:
    """A method body: an ordered statement list plus a label table.

    Labels map symbolic names to statement indices; branch statements refer
    to labels, so bodies stay editable until :meth:`seal` freezes indices.
    """

    def __init__(self) -> None:
        self.statements: list[Stmt] = []
        self.labels: dict[str, int] = {}
        self.locals: dict[str, Local] = {}
        self._sealed = False

    def add(self, stmt: Stmt) -> Stmt:
        if self._sealed:
            raise RuntimeError("body is sealed")
        stmt.index = len(self.statements)
        self.statements.append(stmt)
        return stmt

    def mark_label(self, name: str) -> None:
        """Attach label ``name`` to the *next* statement added."""
        if name in self.labels:
            raise ValueError(f"duplicate label {name!r}")
        self.labels[name] = len(self.statements)

    def declare_local(self, local: Local) -> Local:
        existing = self.locals.get(local.name)
        if existing is not None and existing != local:
            raise ValueError(f"local {local.name!r} redeclared with another type")
        self.locals[local.name] = local
        return local

    def label_index(self, name: str) -> int:
        try:
            return self.labels[name]
        except KeyError:
            raise UndefinedLabel(f"undefined label {name!r}") from None

    def seal(self) -> None:
        """Freeze the body.  Dangling labels (pointing past the final
        statement) get a synthetic terminator so branches stay valid."""
        from .statements import NopStmt, ReturnStmt

        pending = [n for n, i in self.labels.items() if i >= len(self.statements)]
        if pending:
            self.add(NopStmt())
            self.add(ReturnStmt())
        elif not self.statements or self.statements[-1].falls_through:
            self.add(ReturnStmt())
        self._sealed = True

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.statements)


class Method:
    """A method definition: signature, modifiers and (optionally) a body.

    ``method_id`` — the string form of the signature — is the key used by
    :class:`~repro.ir.statements.StmtRef` and by every analysis artefact.
    """

    def __init__(
        self,
        sig: MethodSig,
        *,
        is_static: bool = False,
        is_abstract: bool = False,
        body: Body | None = None,
    ) -> None:
        self.sig = sig
        self._method_id: str | None = None
        self.is_static = is_static
        self.is_abstract = is_abstract
        self.body = body if body is not None else (None if is_abstract else Body())
        self.param_locals: list[Local] = []
        self.this_local: Local | None = None

    @property
    def method_id(self) -> str:
        # hot: every StmtRef and analysis artefact keys on this string, and
        # sig is never reassigned after construction
        mid = self._method_id
        if mid is None:
            mid = self._method_id = str(self.sig)
        return mid

    @property
    def class_name(self) -> str:
        return self.sig.class_name

    @property
    def name(self) -> str:
        return self.sig.name

    @property
    def return_type(self) -> Type:
        return self.sig.return_type

    @property
    def has_body(self) -> bool:
        return self.body is not None and len(self.body) > 0

    def stmt_ref(self, stmt: Stmt) -> StmtRef:
        return StmtRef(self.method_id, stmt.index)

    def stmt_at(self, index: int) -> Stmt:
        assert self.body is not None
        return self.body.statements[index]

    def __repr__(self) -> str:
        return f"Method({self.sig})"


__all__ = ["Body", "Method", "UndefinedLabel"]
