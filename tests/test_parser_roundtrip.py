"""Printer ↔ parser round-trip tests for the textual IR format."""

from __future__ import annotations

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.validate import validate_program
from repro.ir.parser import ParseError, parse_program
from repro.ir.printer import print_program

from conftest import build_branchy_program


def roundtrip(program):
    text = print_program(program)
    reparsed = parse_program(text)
    text2 = print_program(reparsed)
    assert text == text2, "printer/parser round-trip diverged"
    return reparsed


class TestRoundTrip:
    def test_branchy_program(self, branchy_program):
        reparsed = roundtrip(branchy_program)
        assert validate_program(reparsed) == []
        cls = reparsed.class_of("com.example.Branchy")
        assert cls is not None
        run = cls.find_methods("run")[0]
        assert run.this_local is not None
        assert len(run.param_locals) == 1

    def test_fields_and_statics(self):
        pb = ProgramBuilder()
        cb = pb.class_("a.App", superclass="android.app.Activity")
        cb.field("token", "java.lang.String")
        m = cb.method("save", params=["java.lang.String"])
        m.putfield(m.this, "token", m.param(0), cls="a.App")
        m.putstatic("a.App", "last", m.param(0))
        got = m.getfield(m.this, "token", cls="a.App")
        m.call_this("save", [got])
        m.ret_void()
        reparsed = roundtrip(pb.build())
        assert "token" in reparsed.class_of("a.App").fields

    def test_invokes_and_constants(self):
        pb = ProgramBuilder()
        cb = pb.class_("a.B")
        m = cb.method("go", static=True)
        sb = m.new("java.lang.StringBuilder")
        m.vcall(sb, "append", ["x, y"], returns="java.lang.StringBuilder")
        m.vcall(sb, "append", [42], returns="java.lang.StringBuilder")
        s = m.vcall(sb, "toString", [], returns="java.lang.String")
        m.scall("a.B", "use", [s])
        m.ret_void()
        use = cb.method("use", params=["java.lang.String"], static=True)
        use.ret_void()
        roundtrip(pb.build())

    def test_arrays_casts_instanceof(self):
        pb = ProgramBuilder()
        cb = pb.class_("a.C")
        m = cb.method("go", params=["java.lang.Object"])
        arr = m.new_array("java.lang.String", 3)
        m.astore(arr, 0, "hello")
        elem = m.aload(arr, 0)
        m.length(arr)
        m.cast(m.param(0), "java.lang.String")
        flag = m.fresh("boolean", "is")
        from repro.ir.types import parse_type
        from repro.ir.values import InstanceOfExpr

        m.assign(flag, InstanceOfExpr(m.param(0), parse_type("java.lang.String")))
        m.ret_void()
        roundtrip(pb.build())

    def test_string_escapes(self):
        pb = ProgramBuilder()
        cb = pb.class_("a.D")
        m = cb.method("go", static=True)
        m.let("s", "java.lang.String", 'quote " and \' and \\ and, comma')
        m.ret_void()
        reparsed = roundtrip(pb.build())
        body = reparsed.class_of("a.D").find_methods("go")[0].body
        from repro.ir.statements import AssignStmt
        from repro.ir.values import StringConst

        consts = [
            s.rhs.value
            for s in body
            if isinstance(s, AssignStmt) and isinstance(s.rhs, StringConst)
        ]
        assert 'quote " and \' and \\ and, comma' in consts

    def test_abstract_method(self):
        pb = ProgramBuilder()
        cb = pb.class_("a.E", is_interface=True)
        cb.abstract_method("onDone", params=["java.lang.String"])
        reparsed = roundtrip(pb.build())
        m = reparsed.class_of("a.E").find_methods("onDone")[0]
        assert m.is_abstract

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError):
            parse_program("class a.B {\n  ???\n}")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_program("not a class at all")
