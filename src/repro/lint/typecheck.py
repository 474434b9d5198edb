"""Whole-program typechecker for the three-address IR (``IR0xx`` rules).

Subsumes and extends :mod:`repro.ir.validate`: the structural rules
(IR001–IR007) are ``validate_method``'s rule-tagged errors; IR008 reports
superclass cycles (via :func:`repro.ir.validate.superclass_cycles`); the
remaining rules are the class-hierarchy-aware type checks — assignment and
cast compatibility, invoke arity and argument types, field-store and
return types.

The checker is deliberately permissive wherever the library world is
involved: the program under analysis only contains *app* classes, so the
hierarchy of ``org.apache.http...``/``android...`` types is unknown and any
judgement involving them would be a guess.  An ``ERROR`` is only issued for
facts provable from the program alone — two app classes with no hierarchy
relation in either direction, an arity mismatch against the call site's own
signature, a primitive where the declared type demands an unrelated app
class, and so on.  Primitives are mutually convertible (the corpus frontend
uses JVM-style implicit widening and int-backed booleans) and boxing
to/from references is accepted.
"""

from __future__ import annotations

from ..ir.classes import ClassDef
from ..ir.method import Method
from ..ir.program import Program
from ..ir.statements import (
    AssignStmt,
    IdentityStmt,
    ReturnStmt,
    Stmt,
)
from ..ir.types import (
    ArrayType,
    BOOLEAN,
    DOUBLE,
    FLOAT,
    INT,
    OBJECT,
    STRING_T,
    Type,
    VOID,
    class_t,
)
from ..ir.validate import superclass_cycles, validate_method
from ..ir.values import (
    ArrayRef,
    BinOpExpr,
    CastExpr,
    ClassConst,
    DoubleConst,
    InstanceFieldRef,
    InstanceOfExpr,
    IntConst,
    InvokeExpr,
    LengthExpr,
    Local,
    MethodSig,
    NewArrayExpr,
    NewExpr,
    NullConst,
    ParamRef,
    StaticFieldRef,
    StringConst,
    ThisRef,
    UnOpExpr,
    Value,
)
from .diagnostics import Diagnostic, make_finding

_BOOL_OPS = frozenset({"==", "!=", "<", "<=", ">", ">=", "&&", "||"})
_CLASS_T = class_t("java.lang.Class")


class Hierarchy:
    """Cycle-safe hierarchy queries over a :class:`Program`.

    :meth:`Program.superclasses` is an unguarded walk that loops forever on
    a superclass cycle, so every query here carries its own visited set;
    lint must stay total even on the broken programs it exists to reject.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.cycles = superclass_cycles(program)
        self.on_cycle: set[str] = {name for cycle in self.cycles for name in cycle}
        self._supertypes: dict[str, frozenset[str]] = {}

    def is_app_class(self, name: str) -> bool:
        return name in self.program.classes

    def supertypes(self, name: str) -> frozenset[str]:
        """``name`` plus every (app or library) supertype name reachable
        through superclass and interface edges — cycle-safe, memoised."""
        cached = self._supertypes.get(name)
        if cached is not None:
            return cached
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cls = self.program.classes.get(current)
            if cls is None:
                continue  # library type: parents unknown
            if cls.superclass:
                stack.append(cls.superclass)
            stack.extend(cls.interfaces)
        out = frozenset(seen)
        self._supertypes[name] = out
        return out

    def related(self, a: str, b: str) -> bool:
        """Whether app classes ``a`` and ``b`` share a hierarchy line in
        either direction (covers up- and down-casts)."""
        return b in self.supertypes(a) or a in self.supertypes(b)

    def resolve_app(self, sig: MethodSig) -> Method | None:
        """Cycle-safe equivalent of :meth:`Program.resolve_static`."""
        seen: set[str] = set()
        current: str | None = sig.class_name
        while current is not None and current not in seen:
            seen.add(current)
            cls: ClassDef | None = self.program.classes.get(current)
            if cls is None:
                return None
            found = cls.get_method(sig)
            if found is not None and not found.is_abstract:
                return found
            current = cls.superclass
        return None


def static_type_of(value: Value, hier: Hierarchy) -> Type | None:
    """Best-effort static type of a value; ``None`` means "unknown — do not
    judge" (e.g. ``null``, or arithmetic over untyped operands)."""
    if isinstance(value, Local):
        return value.type
    if isinstance(value, IntConst):
        return INT
    if isinstance(value, DoubleConst):
        return DOUBLE
    if isinstance(value, StringConst):
        return STRING_T
    if isinstance(value, NullConst):
        return None
    if isinstance(value, ClassConst):
        return _CLASS_T
    if isinstance(value, NewExpr):
        return value.class_type
    if isinstance(value, NewArrayExpr):
        from ..ir.types import array_t

        return array_t(value.element_type)
    if isinstance(value, BinOpExpr):
        if value.op in _BOOL_OPS:
            return BOOLEAN
        left = static_type_of(value.left, hier)
        right = static_type_of(value.right, hier)
        if value.op == "+" and STRING_T in (left, right):
            return STRING_T  # string concatenation shorthand
        if left is None or right is None:
            return None
        if left.is_primitive and right.is_primitive:
            return DOUBLE if (DOUBLE in (left, right) or FLOAT in (left, right)) else left
        return None
    if isinstance(value, UnOpExpr):
        if value.op == "!":
            return BOOLEAN
        return static_type_of(value.operand, hier)
    if isinstance(value, CastExpr):
        return value.to_type
    if isinstance(value, InstanceOfExpr):
        return BOOLEAN
    if isinstance(value, LengthExpr):
        return INT
    if isinstance(value, (InstanceFieldRef, StaticFieldRef)):
        return value.field.type
    if isinstance(value, ArrayRef):
        base = static_type_of(value.base, hier)
        return base.element if isinstance(base, ArrayType) else None
    if isinstance(value, InvokeExpr):
        return value.sig.return_type
    if isinstance(value, ParamRef):
        return value.type
    if isinstance(value, ThisRef):
        return value.type
    return None


def compatible(src: Type | None, dst: Type | None, hier: Hierarchy) -> bool:
    """Whether a value of static type ``src`` may flow into a slot of
    declared type ``dst`` without provably being a type error."""
    if src is None or dst is None or src == dst:
        return True
    if src == VOID:
        # MethodBuilder types the `into=` local of a void-returning call as
        # Object; the expression's type stays void.  Not a program bug.
        return True
    if src.is_primitive or dst.is_primitive:
        # Widening/narrowing between primitives and (un)boxing to references
        # are both legal shorthands in the corpus frontend.
        return True
    if OBJECT in (src.name, dst.name):
        return True
    if isinstance(src, ArrayType) or isinstance(dst, ArrayType):
        if isinstance(src, ArrayType) and isinstance(dst, ArrayType):
            return compatible(src.element, dst.element, hier)
        other = dst if isinstance(src, ArrayType) else src
        # array <-> library reference (Serializable, Object[], ...) is fine;
        # array <-> app class is provably wrong.
        return not hier.is_app_class(other.name)
    src_app = hier.is_app_class(src.name)
    dst_app = hier.is_app_class(dst.name)
    if not src_app or not dst_app:
        # A library type is involved; its hierarchy is unknown to us.
        return True
    return hier.related(src.name, dst.name)


# ---------------------------------------------------------------------------
# Structural rules (IR001–IR007): validate_method's rule-tagged errors.

#: structural rules after which no CFG can be built for the body
_CFG_BREAKING = frozenset({"IR001", "IR002", "IR003", "IR007"})


def _check_structure(method: Method, out: list[Diagnostic]) -> bool:
    """Emit structural findings; returns False when the body is too broken
    for CFG construction (dataflow lints must then skip this method)."""
    cfg_safe = True
    for error in validate_method(method):
        out.append(make_finding(
            error.rule, error.message, class_name=method.class_name,
            method_id=error.method_id, index=error.index,
        ))
        cfg_safe = cfg_safe and error.rule not in _CFG_BREAKING
    return cfg_safe


# ---------------------------------------------------------------------------
# Type rules (IR010–IR017).


def _check_invoke(
    stmt: Stmt, expr: InvokeExpr, method: Method, hier: Hierarchy,
    out: list[Diagnostic],
) -> None:
    cls, mid, idx = method.class_name, method.method_id, stmt.index
    sig = expr.sig
    if len(expr.args) != len(sig.param_types):
        out.append(
            make_finding(
                "IR012",
                f"{sig.qualified_name} expects {len(sig.param_types)} "
                f"argument(s), call passes {len(expr.args)}",
                class_name=cls, method_id=mid, index=idx,
            )
        )
    for pos, (arg, param_t) in enumerate(zip(expr.args, sig.param_types)):
        arg_t = static_type_of(arg, hier)
        if not compatible(arg_t, param_t, hier):
            out.append(
                make_finding(
                    "IR013",
                    f"argument {pos} of {sig.qualified_name}: {arg_t} is not "
                    f"assignable to parameter type {param_t}",
                    class_name=cls, method_id=mid, index=idx,
                )
            )
    target = hier.resolve_app(sig)
    if target is not None and target.sig.return_type != sig.return_type:
        out.append(
            make_finding(
                "IR017",
                f"call site declares return type {sig.return_type} but "
                f"resolved target {target.method_id} returns "
                f"{target.sig.return_type}",
                class_name=cls, method_id=mid, index=idx,
            )
        )


def _check_types(method: Method, hier: Hierarchy, out: list[Diagnostic]) -> None:
    body = method.body
    if body is None:
        return
    cls, mid = method.class_name, method.method_id

    for stmt in body.statements:
        def finding(rule: str, message: str, _idx: int = stmt.index) -> None:
            out.append(
                make_finding(
                    rule, message, class_name=cls, method_id=mid, index=_idx
                )
            )

        expr = stmt.invoke
        if expr is not None:
            _check_invoke(stmt, expr, method, hier, out)
        if isinstance(stmt, AssignStmt):
            rhs = stmt.rhs
            if isinstance(rhs, CastExpr):
                value_t = static_type_of(rhs.value, hier)
                to_t = rhs.to_type
                if (
                    value_t is not None
                    and value_t.is_reference
                    and to_t.is_reference
                    and not isinstance(value_t, ArrayType)
                    and not isinstance(to_t, ArrayType)
                    and hier.is_app_class(value_t.name)
                    and hier.is_app_class(to_t.name)
                    and not hier.related(value_t.name, to_t.name)
                ):
                    finding(
                        "IR011", f"cast from {value_t} to unrelated class {to_t}"
                    )
            src_t = static_type_of(rhs, hier)
            target = stmt.target
            if isinstance(target, Local):
                if not compatible(src_t, target.type, hier):
                    finding(
                        "IR010",
                        f"cannot assign {src_t} to local {target.name!r} "
                        f"of type {target.type}",
                    )
            elif isinstance(target, (InstanceFieldRef, StaticFieldRef)):
                if not compatible(src_t, target.field.type, hier):
                    finding(
                        "IR016",
                        f"cannot store {src_t} into field {target.field} "
                        f"of type {target.field.type}",
                    )
            elif isinstance(target, ArrayRef):
                base_t = static_type_of(target.base, hier)
                if isinstance(base_t, ArrayType) and not compatible(
                    src_t, base_t.element, hier
                ):
                    finding(
                        "IR010", f"cannot store {src_t} into element of {base_t}"
                    )
        elif isinstance(stmt, IdentityStmt):
            src_t = static_type_of(stmt.rhs, hier)
            if not compatible(src_t, stmt.target.type, hier):
                finding(
                    "IR010",
                    f"cannot bind {src_t} to local {stmt.target.name!r} "
                    f"of type {stmt.target.type}",
                )
        elif isinstance(stmt, ReturnStmt):
            declared = method.return_type
            if stmt.value is None:
                if declared != VOID:
                    finding(
                        "IR015",
                        f"bare return in method declared to return {declared}",
                    )
            elif declared == VOID:
                finding("IR014", "value returned from void method")
            else:
                value_t = static_type_of(stmt.value, hier)
                if not compatible(value_t, declared, hier):
                    finding(
                        "IR014",
                        f"cannot return {value_t} from method declared "
                        f"to return {declared}",
                    )


def typecheck_program(program: Program) -> tuple[list[Diagnostic], set[str]]:
    """Run the ``IR0xx`` family; returns ``(findings, cfg_unsafe)`` where
    ``cfg_unsafe`` is the set of method ids whose bodies are structurally
    too broken for CFG construction (dataflow lints skip them)."""
    out: list[Diagnostic] = []
    hier = Hierarchy(program)
    for cycle in hier.cycles:
        loop = " -> ".join(cycle + [cycle[0]])
        for name in cycle:
            out.append(
                make_finding("IR008", f"superclass cycle: {loop}", class_name=name)
            )
    cfg_unsafe: set[str] = set()
    for method in program.methods():
        if not _check_structure(method, out):
            cfg_unsafe.add(method.method_id)
        _check_types(method, hier, out)
    return out, cfg_unsafe


__all__ = [
    "Hierarchy",
    "compatible",
    "static_type_of",
    "typecheck_program",
]
