"""Structural validation of IR programs.

Run after building a program (the corpus test-suite validates every app).
Catches the authoring mistakes that would otherwise surface as confusing
analysis results: dangling branch labels, use of undeclared locals,
fall-through off the end of a body, malformed identity statements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .method import Method
from .program import Program
from .statements import GotoStmt, IdentityStmt, IfStmt
from .values import Local, ParamRef, ThisRef, walk_values


@dataclass(frozen=True)
class ValidationError:
    method_id: str
    index: int
    message: str
    #: the ``IR0xx`` lint rule this error is reported under
    rule: str

    def __str__(self) -> str:
        return f"{self.method_id}#{self.index}: {self.message}"


def validate_method(method: Method) -> list[ValidationError]:
    """Structural errors of one body, in statement order, each tagged with
    its lint rule (IR001–IR007; ``repro lint`` reports exactly these)."""
    errors: list[ValidationError] = []
    body = method.body
    if body is None:
        return errors

    def err(rule: str, index: int, message: str) -> None:
        errors.append(ValidationError(method.method_id, index, message, rule))

    declared = set(body.locals.values())
    n = len(body.statements)
    if n == 0:
        err("IR001", -1, "empty body")
        return errors

    identities_done = False
    for stmt in body.statements:
        if isinstance(stmt, (IfStmt, GotoStmt)):
            for target in stmt.branch_targets():
                if target not in body.labels:
                    err("IR002", stmt.index, f"branch to undefined label {target!r}")
                elif body.labels[target] >= n:
                    err("IR003", stmt.index, f"label {target!r} points past end of body")
        if isinstance(stmt, IdentityStmt):
            if identities_done:
                err("IR004", stmt.index, "identity statement after ordinary statements")
            if not isinstance(stmt.rhs, (ParamRef, ThisRef)):
                err("IR005", stmt.index, "identity rhs must be @this or @parameter")
        else:
            identities_done = True
        for use in stmt.uses():
            for value in walk_values(use):
                if isinstance(value, Local) and value not in declared:
                    err("IR006", stmt.index, f"use of undeclared local {value.name!r}")
        for d in stmt.defs():
            for value in walk_values(d):
                if isinstance(value, Local) and value not in declared:
                    err("IR006", stmt.index,
                        f"definition of undeclared local {value.name!r}")

    if body.statements[-1].falls_through:
        err("IR007", n - 1, "control falls off the end of the body")
    return errors


def superclass_cycles(program: Program) -> list[list[str]]:
    """Cycles in the superclass relation, each as the list of program
    classes on the cycle (entry class first, deterministic order).

    A cycle — ``A extends B extends A``, or ``A extends A`` — would loop
    :meth:`Program.superclasses` and everything built on it (CHA dispatch,
    dominator computation, event roots), so it must be caught before any
    analysis walks the hierarchy.  Chains ending at a library class (not
    present in the program) terminate and are fine.
    """
    state: dict[str, int] = {}  # 0/absent = unvisited, 1 = on stack, 2 = done
    cycles: list[list[str]] = []
    for start in sorted(program.classes):
        if state.get(start):
            continue
        chain: list[str] = []
        current: str | None = start
        while current is not None and current in program.classes:
            mark = state.get(current)
            if mark == 2:
                break
            if mark == 1:
                cycles.append(chain[chain.index(current):])
                break
            state[current] = 1
            chain.append(current)
            current = program.classes[current].superclass
        for name in chain:
            state[name] = 2
    return cycles


def validate_program(program: Program) -> list[ValidationError]:
    errors: list[ValidationError] = []
    for method in program.methods():
        errors.extend(validate_method(method))
    for cycle in superclass_cycles(program):
        if len(cycle) == 1:
            errors.append(
                ValidationError(cycle[0], -1, "class extends itself", "IR008")
            )
            continue
        loop = " -> ".join(cycle + [cycle[0]])
        for name in cycle:
            errors.append(
                ValidationError(name, -1, f"superclass cycle: {loop}", "IR008")
            )
    return errors


def assert_valid(program: Program) -> None:
    errors = validate_program(program)
    if errors:
        listing = "\n".join(str(e) for e in errors[:20])
        raise ValueError(f"invalid IR program ({len(errors)} errors):\n{listing}")


__all__ = [
    "ValidationError",
    "assert_valid",
    "superclass_cycles",
    "validate_method",
    "validate_program",
]
