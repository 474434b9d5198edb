"""Fluent builders for authoring IR programs.

The corpus apps (synthetic reproductions of the paper's evaluated apps) are
written against this API.  It keeps authoring close to the Java the paper
quotes: allocate objects, invoke methods on them, branch, loop.

Call sites are typed by inference: the receiver class comes from the base
local's declared type, parameter types from the argument values.  This is
what makes thirty-plus corpus apps tractable to write while still producing
fully typed Jimple-style IR.

A :class:`ProgramBuilder` builds every value through its program's
:class:`~repro.ir.intern.Interner`, so equal values are one shared object
within the program (the local ``this`` of a class, say, in all of the
class's bodies).  Compare values with ``==``, never ``is``.
"""

from __future__ import annotations

from .classes import ClassDef
from .intern import Interner
from .method import Method
from .program import Program
from .statements import (
    AssignStmt,
    GotoStmt,
    IdentityStmt,
    IfStmt,
    InvokeStmt,
    LValue,
    NopStmt,
    ReturnStmt,
    Stmt,
    ThrowStmt,
)
from .types import ClassType, Type, class_t, parse_type
from .values import (
    ClassConst,
    DoubleConst,
    FieldSig,
    InstanceFieldRef,
    IntConst,
    Local,
    MethodSig,
    StaticFieldRef,
    StringConst,
    Value,
)

_STRING = "java.lang.String"


def as_value(v: Value | str | int | float | None) -> Value:
    """Lift Python literals into IR constants; pass values through.  (A
    builder lifts through its program's table, :meth:`Interner.lift`.)"""
    return Interner().lift(v)


def static_type_of(v: Value) -> Type:
    """Best-effort static type of a value, for call-site signature inference."""
    if isinstance(v, Local):
        return v.type
    if isinstance(v, StringConst):
        return parse_type(_STRING)
    if isinstance(v, IntConst):
        return parse_type("int")
    if isinstance(v, DoubleConst):
        return parse_type("double")
    if isinstance(v, ClassConst):
        return parse_type("java.lang.Class")
    if isinstance(v, (InstanceFieldRef,)):
        return v.field.type
    if isinstance(v, StaticFieldRef):
        return v.field.type
    return parse_type("java.lang.Object")


class ProgramBuilder:
    """Builds a :class:`~repro.ir.program.Program` class by class."""

    def __init__(self) -> None:
        self.program = Program()
        #: the program's value table; it goes when the builder does
        self.values = Interner()

    def class_(
        self,
        name: str,
        *,
        superclass: str = "java.lang.Object",
        interfaces: tuple[str, ...] = (),
        is_interface: bool = False,
    ) -> "ClassBuilder":
        cls = ClassDef(
            name,
            superclass=superclass,
            interfaces=interfaces,
            is_interface=is_interface,
        )
        self.program.add_class(cls)
        return ClassBuilder(self, cls)

    def field_ref(self, class_name: str, field_name: str) -> FieldSig:
        """Look up a declared app field, or synthesise a library field sig."""
        cls = self.program.class_of(class_name)
        if cls is not None and field_name in cls.fields:
            return cls.fields[field_name]
        return self.values.field_sig(
            class_name, field_name, parse_type("java.lang.Object")
        )

    def build(self) -> Program:
        for method in self.program.methods():
            if method.body is not None and not method.body._sealed:
                method.body.seal()
        return self.program


class ClassBuilder:
    def __init__(self, parent: ProgramBuilder, cls: ClassDef) -> None:
        self.parent = parent
        self.cls = cls

    @property
    def name(self) -> str:
        return self.cls.name

    def field(self, name: str, type_name: str | Type) -> FieldSig:
        return self.cls.add_field(
            self.parent.values.field_sig(self.cls.name, name, parse_type(type_name))
        )

    def _sig(
        self,
        name: str,
        params: list[str | Type] | tuple[str | Type, ...],
        returns: str | Type,
    ) -> MethodSig:
        return self.parent.values.method_sig(
            self.cls.name, name, tuple(map(parse_type, params)), parse_type(returns)
        )

    def method(
        self,
        name: str,
        params: list[str | Type] | tuple[str | Type, ...] = (),
        returns: str | Type = "void",
        *,
        static: bool = False,
    ) -> "MethodBuilder":
        method = Method(self._sig(name, params, returns), is_static=static)
        self.cls.add_method(method)
        return MethodBuilder(self.parent, self, method)

    def abstract_method(
        self,
        name: str,
        params: list[str | Type] | tuple[str | Type, ...] = (),
        returns: str | Type = "void",
    ) -> Method:
        method = Method(self._sig(name, params, returns), is_abstract=True, body=None)
        self.cls.add_method(method)
        return method


class MethodBuilder:
    """Builds one method body statement by statement."""

    def __init__(
        self, pb: ProgramBuilder, cb: ClassBuilder, method: Method
    ) -> None:
        self.pb = pb
        self.cb = cb
        self.method = method
        self.values = values = pb.values
        self._temp_counter = 0
        body = method.body
        assert body is not None
        # Identity statements bind `this` and the parameters to locals.
        if not method.is_static:
            this_t = class_t(cb.name)
            this = body.declare_local(values.local("this", this_t))
            body.add(IdentityStmt(this, values.this_ref(this_t)))
            method.this_local = this
        for i, ptype in enumerate(method.sig.param_types):
            p = body.declare_local(values.local(f"p{i}", ptype))
            body.add(IdentityStmt(p, values.param_ref(i, ptype)))
            method.param_locals.append(p)

    # -- locals & constants -------------------------------------------------
    @property
    def this(self) -> Local:
        assert self.method.this_local is not None, "static method has no this"
        return self.method.this_local

    def param(self, i: int) -> Local:
        return self.method.param_locals[i]

    def local(self, name: str, type_name: str | Type) -> Local:
        body = self.method.body
        assert body is not None
        return body.declare_local(self.values.local(name, parse_type(type_name)))

    def fresh(self, type_name: str | Type, hint: str = "t") -> Local:
        self._temp_counter += 1
        return self.local(f"${hint}{self._temp_counter}", type_name)

    # -- raw statement emission ----------------------------------------------
    def emit(self, stmt: Stmt) -> Stmt:
        body = self.method.body
        assert body is not None
        return body.add(stmt)

    # -- assignments ----------------------------------------------------------
    def assign(self, target: LValue, rhs: Value | str | int | float | None) -> Stmt:
        return self.emit(AssignStmt(target, self.values.lift(rhs)))

    def let(
        self,
        name: str,
        type_name: str | Type,
        rhs: Value | str | int | float | None,
    ) -> Local:
        loc = self.local(name, type_name)
        self.assign(loc, rhs)
        return loc

    # -- allocation -------------------------------------------------------------
    def new(
        self,
        class_name: str,
        args: list[Value | str | int | float | None] = (),
        *,
        into: str | None = None,
    ) -> Local:
        """``new C`` followed by the ``<init>`` call, returning the local."""
        ctype = class_t(class_name)
        loc = (
            self.local(into, ctype)
            if into is not None
            else self.fresh(ctype, ctype.simple_name.lower()[:4] or "o")
        )
        self.assign(loc, self.values.new(ctype))
        vals = tuple(map(self.values.lift, args))
        sig = self.values.method_sig(
            class_name, "<init>", tuple(map(static_type_of, vals)), parse_type("void")
        )
        self.emit(InvokeStmt(self.values.invoke("special", sig, loc, vals)))
        return loc

    def new_array(
        self, elem_type: str | Type, size: Value | int, *, into: str | None = None
    ) -> Local:
        from .types import array_t

        etype = parse_type(elem_type)
        atype = array_t(etype)
        loc = self.local(into, atype) if into else self.fresh(atype, "arr")
        self.assign(loc, self.values.new_array(etype, self.values.lift(size)))
        return loc

    # -- calls ---------------------------------------------------------------
    def _invoke(
        self,
        kind: str,
        class_name: str,
        name: str,
        base: Value | None,
        args: tuple[Value, ...],
        returns: str | Type,
        into: str | None,
    ) -> Local | None:
        ret = parse_type(returns)
        sig = self.values.method_sig(
            class_name, name, tuple(map(static_type_of, args)), ret
        )
        expr = self.values.invoke(kind, sig, base, args)
        if ret.name == "void" and into is None:
            self.emit(InvokeStmt(expr))
            return None
        target_type = ret if ret.name != "void" else parse_type("java.lang.Object")
        loc = self.local(into, target_type) if into else self.fresh(target_type, name[:6])
        self.assign(loc, expr)
        return loc

    def vcall(
        self,
        base: Value,
        name: str,
        args: list[Value | str | int | float | None] = (),
        returns: str | Type = "void",
        *,
        on: str | None = None,
        into: str | None = None,
    ) -> Local | None:
        """Virtual call on ``base``.  The receiver class defaults to the
        base value's static type; pass ``on=`` to override (e.g. calling an
        interface method through a field typed as the interface)."""
        vals = tuple(map(self.values.lift, args))
        cname = on or static_type_of(base).name
        return self._invoke("virtual", cname, name, base, vals, returns, into)

    def scall(
        self,
        class_name: str,
        name: str,
        args: list[Value | str | int | float | None] = (),
        returns: str | Type = "void",
        *,
        into: str | None = None,
    ) -> Local | None:
        vals = tuple(map(self.values.lift, args))
        return self._invoke("static", class_name, name, None, vals, returns, into)

    def call_this(
        self,
        name: str,
        args: list[Value | str | int | float | None] = (),
        returns: str | Type = "void",
        *,
        into: str | None = None,
    ) -> Local | None:
        return self.vcall(self.this, name, args, returns, on=self.cb.name, into=into)

    # -- fields ---------------------------------------------------------------
    def getfield(
        self,
        base: Value,
        field_name: str,
        *,
        cls: str | None = None,
        into: str | None = None,
    ) -> Local:
        cname = cls or static_type_of(base).name
        fsig = self.pb.field_ref(cname, field_name)
        loc = self.local(into, fsig.type) if into else self.fresh(fsig.type, field_name[:8])
        self.assign(loc, self.values.instance_field(base, fsig))
        return loc

    def putfield(
        self,
        base: Value,
        field_name: str,
        value: Value | str | int | float | None,
        *,
        cls: str | None = None,
    ) -> Stmt:
        cname = cls or static_type_of(base).name
        fsig = self.pb.field_ref(cname, field_name)
        return self.emit(
            AssignStmt(self.values.instance_field(base, fsig), self.values.lift(value))
        )

    def getstatic(
        self, class_name: str, field_name: str, *, into: str | None = None
    ) -> Local:
        fsig = self.pb.field_ref(class_name, field_name)
        loc = self.local(into, fsig.type) if into else self.fresh(fsig.type, field_name[:8])
        self.assign(loc, self.values.static_field(fsig))
        return loc

    def putstatic(
        self, class_name: str, field_name: str, value: Value | str | int | float | None
    ) -> Stmt:
        fsig = self.pb.field_ref(class_name, field_name)
        return self.emit(
            AssignStmt(self.values.static_field(fsig), self.values.lift(value))
        )

    # -- arrays -----------------------------------------------------------------
    def aload(self, array: Value, index: Value | int, *, into: str | None = None) -> Local:
        from .types import ArrayType

        atype = static_type_of(array)
        etype = atype.element if isinstance(atype, ArrayType) else parse_type("java.lang.Object")
        loc = self.local(into, etype) if into else self.fresh(etype, "elem")
        self.assign(loc, self.values.array_ref(array, self.values.lift(index)))
        return loc

    def astore(self, array: Value, index: Value | int, value: Value | str | int | float) -> Stmt:
        lift = self.values.lift
        return self.emit(
            AssignStmt(self.values.array_ref(array, lift(index)), lift(value))
        )

    def length(self, array: Value, *, into: str | None = None) -> Local:
        loc = self.local(into, "int") if into else self.fresh("int", "len")
        self.assign(loc, self.values.length(array))
        return loc

    # -- operators ---------------------------------------------------------------
    def binop(
        self,
        op: str,
        left: Value | str | int | float,
        right: Value | str | int | float,
        type_name: str | Type = "int",
        *,
        into: str | None = None,
    ) -> Local:
        loc = self.local(into, type_name) if into else self.fresh(type_name, "op")
        lift = self.values.lift
        self.assign(loc, self.values.binop(op, lift(left), lift(right)))
        return loc

    def concat(self, *parts: Value | str | int, into: str | None = None) -> Local:
        """String concatenation via chained ``+`` (untyped shorthand the
        semantic models understand as string concat)."""
        if not parts:
            raise ValueError("concat needs at least one part")
        lift = self.values.lift
        acc = lift(parts[0])
        for part in parts[1:]:
            loc = self.fresh(_STRING, "cat")
            self.assign(loc, self.values.binop("+", acc, lift(part)))
            acc = loc
        if isinstance(acc, Local) and into is None:
            return acc
        loc = self.local(into, _STRING) if into else self.fresh(_STRING, "cat")
        self.assign(loc, acc)
        return loc

    def cast(self, value: Value, to: str | Type, *, into: str | None = None) -> Local:
        loc = self.local(into, to) if into else self.fresh(to, "cast")
        self.assign(loc, self.values.cast(parse_type(to), value))
        return loc

    # -- control flow ---------------------------------------------------------
    def label(self, name: str) -> None:
        body = self.method.body
        assert body is not None
        body.mark_label(name)

    def goto(self, label: str) -> None:
        self.emit(GotoStmt(label))

    def if_goto(
        self,
        left: Value | str | int,
        op: str,
        right: Value | str | int | None,
        label: str,
    ) -> None:
        lift = self.values.lift
        self.emit(IfStmt(self.values.binop(op, lift(left), lift(right)), label))

    def if_truthy(self, value: Value, label: str) -> None:
        zero = self.values.int_const(0)
        self.emit(IfStmt(self.values.binop("!=", value, zero), label))

    def nop(self) -> None:
        self.emit(NopStmt())

    def ret(self, value: Value | str | int | float | None = None) -> None:
        self.emit(ReturnStmt(None if value is None else self.values.lift(value)))

    def ret_void(self) -> None:
        self.emit(ReturnStmt(None))

    def throw(self, value: Value) -> None:
        self.emit(ThrowStmt(value))


__all__ = [
    "ClassBuilder",
    "MethodBuilder",
    "ProgramBuilder",
    "as_value",
    "static_type_of",
]
