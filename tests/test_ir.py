"""Unit tests for the IR substrate: types, values, builder, validation."""

from __future__ import annotations

import gc

import pytest

from repro.ir.builder import ProgramBuilder, as_value, static_type_of
from repro.ir.classes import ClassDef
from repro.ir.method import Method
from repro.ir.statements import (
    AssignStmt,
    IdentityStmt,
    InvokeStmt,
    ReturnStmt,
    StmtRef,
)
from repro.ir.types import array_t, class_t, parse_type
from repro.ir.validate import validate_method, validate_program
from repro.ir.values import (
    BinOpExpr,
    IntConst,
    InvokeExpr,
    Local,
    MethodSig,
    NULL,
    StringConst,
    field_sig,
    walk_values,
)
from repro.cfg.callgraph import CallSite
from repro.corpus import app_keys
from repro.ir.printer import print_class, print_program


class TestTypes:
    def test_parse_primitives(self):
        assert parse_type("int").name == "int"
        assert parse_type("void").is_primitive
        assert not parse_type("int").is_reference

    def test_parse_class(self):
        t = parse_type("java.lang.String")
        assert t.is_reference
        assert t.simple_name == "String"
        assert t.package == "java.lang"

    def test_parse_array(self):
        t = parse_type("byte[]")
        assert t.name == "byte[]"
        assert t.element.name == "byte"
        assert t.dimensions == 1
        assert parse_type("int[][]").dimensions == 2

    def test_interning(self):
        assert parse_type("com.a.B") is parse_type("com.a.B")
        assert array_t("int") is array_t(parse_type("int"))
        assert class_t("x.Y") == parse_type("x.Y")

    def test_empty_type_rejected(self):
        with pytest.raises(ValueError):
            parse_type("")


class TestValues:
    def test_as_value_lifting(self):
        assert as_value("x") == StringConst("x")
        assert as_value(3) == IntConst(3)
        assert as_value(True) == IntConst(1)
        assert as_value(None) is NULL
        local = Local("a", parse_type("int"))
        assert as_value(local) is local

    def test_as_value_rejects_unknown(self):
        with pytest.raises(TypeError):
            as_value(object())

    def test_static_type_inference(self):
        assert static_type_of(StringConst("s")).name == "java.lang.String"
        assert static_type_of(IntConst(1)).name == "int"
        assert static_type_of(Local("v", parse_type("a.B"))).name == "a.B"

    def test_invoke_expr_validation(self):
        sig = MethodSig.of("a.B", "m", (), "void")
        with pytest.raises(ValueError):
            InvokeExpr("static", sig, Local("x", parse_type("a.B")))
        with pytest.raises(ValueError):
            InvokeExpr("virtual", sig, None)
        with pytest.raises(ValueError):
            InvokeExpr("bogus", sig, None)

    def test_walk_values(self):
        a = Local("a", parse_type("int"))
        b = Local("b", parse_type("int"))
        expr = BinOpExpr("+", a, b)
        assert set(walk_values(expr)) == {expr, a, b}


class TestStmtRef:
    def test_refs_hash_like_their_field_tuples(self):
        """``StmtRef`` and ``CallSite`` hash to their field tuple's hash,
        the hash a frozen dataclass of the same fields has, so sets of
        them iterate in the same order; ``str`` and ``repr`` read as
        before."""
        mid = "<a.B: void m()>"
        ref = StmtRef(mid, 3)
        assert hash(ref) == hash((mid, 3))
        assert str(ref) == "<a.B: void m()>#3"
        assert repr(ref) == "StmtRef(method_id='<a.B: void m()>', index=3)"
        expr = InvokeExpr("static", MethodSig.of("a.B", "n", (), "void"), None)
        site = CallSite(mid, ref, expr)
        assert hash(site) == hash((mid, ref, expr))
        assert repr(site) == (
            f"CallSite(caller='{mid}', ref={ref!r}, expr={expr!r})"
        )


class TestMethodSig:
    def test_of_and_str(self):
        sig = MethodSig.of("com.a.B", "go", ("int", "java.lang.String"), "boolean")
        assert sig.qualified_name == "com.a.B.go"
        assert "go(int,java.lang.String)" in str(sig)
        assert sig.subsignature == ("go", sig.param_types)


class TestBuilder:
    def test_identity_statements_bind_this_and_params(self, branchy_program):
        cls = branchy_program.class_of("com.example.Branchy")
        run = cls.find_methods("run")[0]
        stmts = run.body.statements
        assert isinstance(stmts[0], IdentityStmt)  # this
        assert isinstance(stmts[1], IdentityStmt)  # p0
        assert run.this_local is not None
        assert len(run.param_locals) == 1

    def test_new_emits_alloc_and_init(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.C")
        m = cb.method("mk")
        sb = m.new("java.lang.StringBuilder")
        m.ret_void()
        prog = pb.build()
        body = prog.class_of("t.C").find_methods("mk")[0].body
        inits = [
            s
            for s in body
            if isinstance(s, InvokeStmt) and s.expr.sig.name == "<init>"
        ]
        assert len(inits) == 1
        assert inits[0].expr.base == sb

    def test_local_redeclaration_same_type_ok(self):
        pb = ProgramBuilder()
        m = pb.class_("t.C").method("m")
        a1 = m.local("a", "int")
        a2 = m.local("a", "int")
        assert a1 == a2
        with pytest.raises(ValueError):
            m.local("a", "long")

    def test_concat_builds_chain(self):
        pb = ProgramBuilder()
        m = pb.class_("t.C").method("m")
        out = m.concat("http://", "host", "/path")
        m.ret_void()
        pb.build()
        assert out.type.name == "java.lang.String"

    def test_duplicate_class_rejected(self):
        pb = ProgramBuilder()
        pb.class_("t.C")
        with pytest.raises(ValueError):
            pb.class_("t.C")

    def test_duplicate_method_rejected(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.C")
        cb.method("m", params=["int"])
        with pytest.raises(ValueError):
            cb.method("m", params=["int"])

    def test_overloads_allowed(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.C")
        cb.method("m", params=["int"])
        cb.method("m", params=["java.lang.String"])
        assert len(pb.program.class_of("t.C").find_methods("m")) == 2

    def test_auto_seal_adds_return(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.C")
        m = cb.method("m")
        m.assign(m.local("x", "int"), 1)
        prog = pb.build()  # no explicit ret
        body = prog.class_of("t.C").find_methods("m")[0].body
        assert isinstance(body.statements[-1], ReturnStmt)


class TestHierarchy:
    def _prog(self):
        pb = ProgramBuilder()
        pb.class_("a.Base")
        pb.class_("a.Mid", superclass="a.Base")
        pb.class_("a.Leaf", superclass="a.Mid")
        mid = pb.program.class_of("a.Mid")
        mid.add_method(Method(MethodSig.of("a.Mid", "go")))
        leaf = pb.program.class_of("a.Leaf")
        leaf.add_method(Method(MethodSig.of("a.Leaf", "go")))
        return pb.build()

    def test_superclasses(self):
        prog = self._prog()
        chain = list(prog.superclasses("a.Leaf"))
        assert chain[:3] == ["a.Leaf", "a.Mid", "a.Base"]

    def test_subclasses(self):
        prog = self._prog()
        assert prog.subclasses("a.Base") == {"a.Mid", "a.Leaf"}
        assert prog.subclasses("a.Leaf") == set()

    def test_dispatch_picks_most_derived(self):
        prog = self._prog()
        sig = MethodSig.of("a.Base", "go")
        assert prog.resolve_dispatch("a.Leaf", sig).class_name == "a.Leaf"
        assert prog.resolve_dispatch("a.Mid", sig).class_name == "a.Mid"
        assert prog.resolve_dispatch("a.Base", sig) is None

    def test_library_ancestors(self):
        pb = ProgramBuilder()
        pb.class_("b.Task", superclass="android.os.AsyncTask")
        prog = pb.build()
        assert "android.os.AsyncTask" in prog.library_ancestors("b.Task")


class TestValidation:
    def test_valid_program_has_no_errors(self, branchy_program):
        assert validate_program(branchy_program) == []

    def test_undefined_label_detected(self):
        pb = ProgramBuilder()
        m = pb.class_("t.C").method("m", params=["int"])
        m.if_goto(m.param(0), "==", 0, "NOWHERE")
        m.ret_void()
        method = pb.program.class_of("t.C").find_methods("m")[0]
        method.body.seal()
        errors = validate_method(method)
        assert any("NOWHERE" in str(e) for e in errors)

    def test_undeclared_local_detected(self):
        method = Method(MethodSig.of("t.C", "m"), is_static=True)
        ghost = Local("ghost", parse_type("int"))
        method.body.add(AssignStmt(ghost, IntConst(1)))
        method.body.declare_local(Local("ok", parse_type("int")))
        method.body.add(ReturnStmt())
        method.body.seal()
        errors = validate_method(method)
        assert any("ghost" in str(e) for e in errors)

    def test_fallthrough_detected(self):
        method = Method(MethodSig.of("t.C", "m"), is_static=True)
        local = method.body.declare_local(Local("x", parse_type("int")))
        method.body.add(AssignStmt(local, IntConst(1)))
        method.body._sealed = True  # bypass seal's auto-return
        errors = validate_method(method)
        assert any("falls off" in str(e) for e in errors)


class TestPrinter:
    def test_print_contains_structure(self, branchy_program):
        text = print_program(branchy_program)
        assert "class com.example.Branchy" in text
        assert "goto LOOP" in text
        assert "run(int)" in text

    def test_print_class_fields(self):
        cls = ClassDef("p.Q")
        cls.add_field(field_sig("p.Q", "count", "int"))
        assert "int count;" in print_class(cls)


# ------------------------------------------------------------ representation
def _samples() -> list:
    """One instance of every concrete value, sig and type class."""
    from repro.ir import values as v

    i, s = parse_type("int"), class_t("java.lang.String")
    x = v.Local("x", i)
    fsig = v.FieldSig("a.B", "f", i)
    msig = MethodSig.of("a.B", "m", ("int",), "void")
    return [
        x, v.IntConst(1), v.DoubleConst(0.5), v.StringConst("s"), v.NULL,
        v.ClassConst("a.B"), v.NewExpr(s), v.NewArrayExpr(i, x),
        v.BinOpExpr("+", x, x), v.UnOpExpr("-", x), v.CastExpr(i, x),
        v.InstanceOfExpr(x, s), v.LengthExpr(x), v.InstanceFieldRef(x, fsig),
        v.StaticFieldRef(fsig), v.ArrayRef(x, x),
        v.InvokeExpr("static", msig, None, (x,)), v.ParamRef(0, i),
        v.ThisRef(s), fsig, msig, i, s, array_t(i),
    ]


def _ir_classes() -> set[type]:
    from repro.ir import types, values

    return {
        obj for mod in (types, values) for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__
    }


def _signature_domain_samples() -> list:
    """One instance of every signature term, abstract value and
    transaction record an analysis builds."""
    from repro.deps import transactions as t
    from repro.semantics import avals as a
    from repro.signature import builder as b, lang as g

    site = StmtRef("<a.B: void m()>", 0)
    const, unknown = g.Const("x"), g.Unknown("int", "user_input")
    request = a.RequestAV(uri=const)
    acc = a.ResponseAccumulator(1)
    record = b.TxnRecord(1, site, "<a.B: void m()>", request, acc)
    return [
        const, unknown, g.Concat((const, unknown)), g.Alt((const, unknown)),
        g.Rep(const), g.JsonObject(((const, unknown),)), g.JsonArray((const,)),
        g.XmlElement("a", (("k", const),), (const,), unknown),
        a.NumAV(1), a.NULL_AV, a.AppObjAV.of("a.B"), a.ObjAV("a.B"),
        request, acc, a.RespRef(frozenset({1}), ("k",)),
        record, b.InterpResult([record], {"<a.B: void m()>"}),
        t.RequestSig.from_aval(request), t.ResponseSig("json", unknown),
        t.Dependency(1, "$.k", 2, "uri"),
        t.Transaction(1, site, "<a.B: void m()>",
                      t.RequestSig.from_aval(request), t.ResponseSig("json")),
    ]


def _signature_domain_classes() -> set[type]:
    """Every class in the signature language, the abstract values and the
    transaction records, plus the interpreter's two result records."""
    from repro.deps import transactions
    from repro.semantics import avals
    from repro.signature import builder, lang

    return {
        obj for mod in (lang, avals, transactions) for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__
    } | {builder.TxnRecord, builder.InterpResult}


def _ir_objects(program):
    """Every value, sig and type a program reaches, once per occurrence:
    declared fields and signatures, body locals and statement operands,
    down through each dataclass field."""
    from dataclasses import fields, is_dataclass

    stack = []
    for cls in program.classes.values():
        stack.extend(cls.fields.values())
        for method in cls.methods():
            stack.append(method.sig)
            if method.body is not None:
                stack.extend(method.body.locals.values())
                for stmt in method.body:
                    stack.extend(stmt.defs())
                    stack.extend(stmt.uses())
    while stack:
        obj = stack.pop()
        yield obj
        for f in fields(obj):
            part = getattr(obj, f.name)
            for item in part if isinstance(part, tuple) else (part,):
                if is_dataclass(item):
                    stack.append(item)


def _program(label: str, tmp_path):
    """A corpus app built, a corpus app's bundle parsed (``<key>.sapk``),
    or a lineage release (``tzm@v2`` is an obfuscated rebuild)."""
    from repro.apk.loader import load_apk, save_apk
    from repro.corpus import build_app, build_version

    if "@" in label:
        return build_version(label).apk.program
    key, _, suffix = label.partition(".")
    if suffix:
        return load_apk(save_apk(build_app(key), tmp_path / label)).program
    return build_app(key).program


class TestRepresentation:
    """The IR's shape: slotted values, one object per distinct value per
    program, and hashes that keep every set's order."""

    def test_every_value_sig_and_type_class_is_slotted(self):
        from repro.ir.types import Type
        from repro.ir.values import Constant, Expr, Value

        classes = _ir_classes()
        assert all("__slots__" in vars(cls) for cls in classes), [
            cls for cls in classes if "__slots__" not in vars(cls)
        ]
        samples = _samples()
        assert {type(s) for s in samples} == classes - {Value, Constant, Expr, Type}
        assert not [s for s in samples if hasattr(s, "__dict__")]

    def test_every_signature_domain_class_is_slotted(self):
        """Terms, abstract values and transaction records carry no
        instance ``__dict__`` either."""
        from repro.signature.lang import Term

        classes = _signature_domain_classes()
        assert not [cls for cls in classes if "__slots__" not in vars(cls)]
        samples = _signature_domain_samples()
        assert {type(s) for s in samples} == classes - {Term}
        assert not [s for s in samples if hasattr(s, "__dict__")]

    def test_hash_is_the_hash_of_the_compared_fields(self):
        from dataclasses import fields

        for sample in _samples():
            compared = tuple(
                getattr(sample, f.name) for f in fields(sample) if f.compare
            )
            assert hash(sample) == hash(compared), sample

    def test_signature_domain_compares_and_hashes_by_field(self):
        """Slots leave equality and hashing by field: every set of terms
        or abstract values keeps its order."""
        from dataclasses import fields, replace

        for sample in _signature_domain_samples():
            assert sample == replace(sample), sample
            if type(sample).__hash__ is None:  # the mutable records
                continue
            compared = tuple(
                getattr(sample, f.name) for f in fields(sample) if f.compare
            )
            assert hash(sample) == hash(compared), sample

    @pytest.mark.parametrize("label", [
        *app_keys(), "pinterest.sapk", "diode.sapk", "ted.sapk", "tzm@v2",
    ])
    def test_equal_values_are_one_object_within_a_program(self, label, tmp_path):
        program = _program(label, tmp_path)
        canonical: dict = {}
        shared = 0
        for obj in _ir_objects(program):
            first = canonical.setdefault(obj, obj)
            assert first is obj, (label, obj)
            shared += 1
        assert shared > len(canonical)

    @pytest.mark.parametrize("producer", ["builder", "parser", "rewriter"])
    def test_a_dropped_program_leaves_no_ir_value_alive(self, producer, tmp_path):
        """While a program lives, the IR objects its build added are one
        per distinct value; once it is dropped, none is left, so no value
        table outlives its build."""
        from repro.apk.loader import load_apk, save_apk
        from repro.apk.obfuscator import obfuscate
        from repro.corpus import build_app

        source = build_app("pinterest")
        bundle = save_apk(source, tmp_path / "p.sapk")
        build = {
            "builder": lambda: build_app("pinterest"),
            "parser": lambda: load_apk(bundle),
            "rewriter": lambda: obfuscate(source).apk,
        }[producer]
        kinds = tuple(_ir_classes())

        def added() -> list:
            gc.collect()
            return [
                o for o in gc.get_objects()
                if isinstance(o, kinds) and id(o) not in before
            ]

        build()  # process-wide types and models first
        before: set[int] = set()
        before = {id(o) for o in added()}
        apk = build()
        alive = added()
        assert len(alive) > 1000
        assert len(set(alive)) == len(alive)
        del apk, alive
        assert added() == []
