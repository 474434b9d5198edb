"""Parser for the Jimple-like textual IR emitted by :mod:`repro.ir.printer`.

The textual form is what ``.sapk`` bundles store; the parser and printer
round-trip (property-tested in ``tests/test_roundtrip.py``).  It is a small
hand-written recursive-descent parser over a regex tokenizer — the grammar
is line-oriented, so each statement parses independently.
"""

from __future__ import annotations

import ast
import re

from .classes import ClassDef
from .method import Body, Method, make_sig
from .program import Program
from .statements import (
    AssignStmt,
    GotoStmt,
    IdentityStmt,
    IfStmt,
    InvokeStmt,
    NopStmt,
    ReturnStmt,
    ThrowStmt,
)
from .types import class_t, parse_type
from .values import (
    ArrayRef,
    BinOpExpr,
    CastExpr,
    ClassConst,
    DoubleConst,
    FieldSig,
    InstanceFieldRef,
    InstanceOfExpr,
    IntConst,
    InvokeExpr,
    LengthExpr,
    Local,
    MethodSig,
    NULL,
    NewArrayExpr,
    NewExpr,
    ParamRef,
    StaticFieldRef,
    StringConst,
    ThisRef,
    UnOpExpr,
    Value,
)


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int | None = None) -> None:
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{message}{where}")


_IDENT = r"[A-Za-z_$][\w$]*"
_TYPE = rf"{_IDENT}(?:\.{_IDENT})*(?:\[\])*"

_CLASS_RE = re.compile(
    rf"^(class|interface)\s+(?P<name>{_TYPE})"
    rf"(?:\s+extends\s+(?P<super>{_TYPE}))?"
    rf"(?:\s+implements\s+(?P<ifaces>[\w.$,\s]+))?\s*\{{$"
)
_FIELD_RE = re.compile(rf"^(?P<type>{_TYPE})\s+(?P<name>{_IDENT});$")
_METHOD_RE = re.compile(
    rf"^(?P<static>static\s+)?(?P<ret>{_TYPE})\s+(?P<name><?init>?|{_IDENT})"
    rf"\((?P<params>[^)]*)\)\s*\{{$"
)
_LABEL_RE = re.compile(rf"^(?P<name>{_IDENT}):$")
_SIG_RE = re.compile(
    rf"^<(?P<cls>{_TYPE}):\s+(?P<ret>{_TYPE})\s+(?P<name><init>|{_IDENT})"
    rf"\((?P<params>[^)]*)\)>$"
)
_FIELDSIG_RE = re.compile(
    rf"^<(?P<cls>{_TYPE}):\s+(?P<type>{_TYPE})\s+(?P<name>{_IDENT})>$"
)

_BINOPS = ("==", "!=", "<=", ">=", "&&", "||", "+", "-", "*", "/", "%", "<", ">")


def _split_args(text: str) -> list[str]:
    """Split a comma-separated argument list, respecting quotes."""
    out: list[str] = []
    depth = 0
    quote: str | None = None
    current = ""
    i = 0
    while i < len(text):
        ch = text[i]
        if quote is not None:
            current += ch
            if ch == "\\":
                if i + 1 < len(text):
                    current += text[i + 1]
                    i += 1
            elif ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            current += ch
        elif ch in "(<[":
            depth += 1
            current += ch
        elif ch in ")>]":
            depth -= 1
            current += ch
        elif ch == "," and depth == 0:
            out.append(current.strip())
            current = ""
        else:
            current += ch
        i += 1
    if current.strip():
        out.append(current.strip())
    return out


class _MethodParser:
    """Parses values and statements of one method body."""

    def __init__(self, body: Body, line_no: int) -> None:
        self.body = body
        self.line_no = line_no

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.line_no)

    # -- values --------------------------------------------------------------
    def local(self, name: str) -> Local:
        loc = self.body.locals.get(name)
        if loc is None:
            raise self.fail(f"undeclared local {name!r}")
        return loc

    def atom(self, text: str) -> Value:
        """Parse a leaf value: constant or local."""
        text = text.strip()
        if text == "null":
            return NULL
        if text.startswith(("'", '"')):
            try:
                value = ast.literal_eval(text)
            except (SyntaxError, ValueError):
                value = None
            if not isinstance(value, str):
                raise self.fail(f"cannot parse string constant {text!r}")
            return StringConst(value)
        if text.startswith("class "):
            return ClassConst(text[len("class "):].strip())
        if re.fullmatch(r"-?\d+", text):
            return IntConst(int(text))
        if re.fullmatch(r"-?\d*\.\d+(e-?\d+)?", text):
            return DoubleConst(float(text))
        if re.fullmatch(_IDENT, text):
            return self.local(text)
        raise self.fail(f"cannot parse value {text!r}")

    def value(self, text: str) -> Value:
        """Parse any right-hand-side value/expression."""
        text = text.strip()
        # invoke
        m = re.match(rf"^(virtual|special|static|interface)invoke\s+(.*)$", text)
        if m:
            return self.invoke_expr(m.group(1), m.group(2))
        # new array (before new object)
        m = re.match(rf"^new\s+(?P<type>{_TYPE})\[(?P<size>[^\]]+)\]$", text)
        if m:
            return NewArrayExpr(parse_type(m.group("type")), self.atom(m.group("size")))
        m = re.match(rf"^new\s+(?P<type>{_TYPE})$", text)
        if m:
            return NewExpr(class_t(m.group("type")))
        m = re.match(rf"^\((?P<type>{_TYPE})\)\s+(?P<v>.+)$", text)
        if m:
            return CastExpr(parse_type(m.group("type")), self.atom(m.group("v")))
        m = re.match(rf"^(?P<v>\S+)\s+instanceof\s+(?P<type>{_TYPE})$", text)
        if m:
            return InstanceOfExpr(self.atom(m.group("v")), parse_type(m.group("type")))
        m = re.match(r"^lengthof\s+(?P<v>.+)$", text)
        if m:
            return LengthExpr(self.atom(m.group("v")))
        ref = self.try_ref(text)
        if ref is not None:
            return ref
        # binary op: leaf op leaf (operands are flat in this IR)
        binop = self.try_binop(text)
        if binop is not None:
            return binop
        m = re.match(r"^(?P<op>[!\-~])(?P<v>[\w$'\".]+)$", text)
        if m and not re.fullmatch(r"-?\d+(\.\d+)?", text):
            return UnOpExpr(m.group("op"), self.atom(m.group("v")))
        return self.atom(text)

    def try_binop(self, text: str) -> BinOpExpr | None:
        # Operands are atoms (possibly quoted strings); find a top-level op.
        quote = None
        i = 0
        while i < len(text):
            ch = text[i]
            if quote:
                if ch == "\\":
                    i += 1
                elif ch == quote:
                    quote = None
            elif ch in "'\"":
                quote = ch
            elif ch == " ":
                rest = text[i + 1 :]
                for op in _BINOPS:
                    if rest.startswith(op + " "):
                        left = text[:i]
                        right = rest[len(op) + 1 :]
                        try:
                            return BinOpExpr(op, self.atom(left), self.atom(right))
                        except ParseError:
                            break
            i += 1
        return None

    def try_ref(self, text: str) -> Value | None:
        """Field/array references."""
        m = _FIELDSIG_RE.match(text)
        if m:
            return StaticFieldRef(
                FieldSig(m.group("cls"), m.group("name"), parse_type(m.group("type")))
            )
        m = re.match(rf"^(?P<base>{_IDENT})\.(?P<sig><.+>)$", text)
        if m:
            fm = _FIELDSIG_RE.match(m.group("sig"))
            if fm:
                return InstanceFieldRef(
                    self.local(m.group("base")),
                    FieldSig(
                        fm.group("cls"), fm.group("name"), parse_type(fm.group("type"))
                    ),
                )
        m = re.match(rf"^(?P<base>{_IDENT})\[(?P<idx>[^\]]+)\]$", text)
        if m:
            return ArrayRef(self.local(m.group("base")), self.atom(m.group("idx")))
        return None

    def invoke_expr(self, kind: str, rest: str) -> InvokeExpr:
        # forms: `<sig>(args)` (static) or `base.<sig>(args)`
        m = re.match(
            rf"^(?:(?P<base>{_IDENT})\.)?"
            rf"(?P<sig><{_TYPE}:\s+{_TYPE}\s+(?:<init>|{_IDENT})\([^)]*\)>)"
            rf"\((?P<args>.*)\)$",
            rest,
        )
        if not m:
            raise self.fail(f"cannot parse invoke {rest!r}")
        sm = _SIG_RE.match(m.group("sig"))
        if not sm:
            raise self.fail(f"cannot parse method signature {m.group('sig')!r}")
        params = tuple(
            parse_type(p) for p in _split_args(sm.group("params"))
        )
        sig = MethodSig(
            sm.group("cls"), sm.group("name"), params, parse_type(sm.group("ret"))
        )
        base = self.local(m.group("base")) if m.group("base") else None
        args = tuple(self.atom(a) for a in _split_args(m.group("args")))
        return InvokeExpr(kind, sig, base, args)

    # -- statements -------------------------------------------------------------
    def statement(self, text: str) -> None:
        body = self.body
        m = re.match(rf"^(?P<t>{_IDENT})\s+:=\s+@this:\s+(?P<type>{_TYPE})$", text)
        if m:
            body.add(
                IdentityStmt(self.local(m.group("t")), ThisRef(class_t(m.group("type"))))
            )
            return
        m = re.match(
            rf"^(?P<t>{_IDENT})\s+:=\s+@parameter(?P<i>\d+):\s+(?P<type>{_TYPE})$", text
        )
        if m:
            body.add(
                IdentityStmt(
                    self.local(m.group("t")),
                    ParamRef(int(m.group("i")), parse_type(m.group("type"))),
                )
            )
            return
        if text == "nop":
            body.add(NopStmt())
            return
        if text == "return":
            body.add(ReturnStmt())
            return
        if text.startswith("return "):
            body.add(ReturnStmt(self.atom(text[len("return "):])))
            return
        if text.startswith("throw "):
            body.add(ThrowStmt(self.atom(text[len("throw "):])))
            return
        if text.startswith("goto "):
            body.add(GotoStmt(text[len("goto "):].strip()))
            return
        m = re.match(rf"^if\s+(?P<cond>.+)\s+goto\s+(?P<label>{_IDENT})$", text)
        if m:
            cond = self.value(m.group("cond"))
            body.add(IfStmt(cond, m.group("label")))
            return
        m = re.match(r"^(virtual|special|static|interface)invoke\s+", text)
        if m:
            expr = self.value(text)
            assert isinstance(expr, InvokeExpr)
            body.add(InvokeStmt(expr))
            return
        # assignment: split on first top-level ` = ` (not `==`, not inside quotes)
        target_text, rhs_text = self._split_assign(text)
        target = self.try_ref(target_text)
        if target is None:
            target = self.local(target_text)
        rhs = self.value(rhs_text)
        body.add(AssignStmt(target, rhs))  # type: ignore[arg-type]

    def _split_assign(self, text: str) -> tuple[str, str]:
        quote = None
        i = 0
        while i < len(text):
            ch = text[i]
            if quote:
                if ch == "\\":
                    i += 1
                elif ch == quote:
                    quote = None
            elif ch in "'\"":
                quote = ch
            elif text.startswith(" = ", i):
                return text[:i].strip(), text[i + 3 :].strip()
            i += 1
        raise self.fail(f"cannot parse statement {text!r}")


def parse_program(text: str) -> Program:
    """Parse a whole program in the printer's textual format."""
    program = Program()
    lines = text.splitlines()
    i = 0
    n = len(lines)

    def skip_blank(idx: int) -> int:
        while idx < n and (not lines[idx].strip() or lines[idx].strip().startswith("//")):
            idx += 1
        return idx

    while True:
        i = skip_blank(i)
        if i >= n:
            break
        header = lines[i].strip()
        cm = _CLASS_RE.match(header)
        if not cm:
            raise ParseError(f"expected class header, got {header!r}", i + 1)
        interfaces = tuple(
            s.strip() for s in (cm.group("ifaces") or "").split(",") if s.strip()
        )
        cls = ClassDef(
            cm.group("name"),
            superclass=cm.group("super") or "java.lang.Object",
            interfaces=interfaces,
            is_interface=cm.group(1) == "interface",
        )
        program.add_class(cls)
        i += 1
        while True:
            i = skip_blank(i)
            if i >= n:
                raise ParseError("unterminated class body", i)
            line = lines[i].strip()
            if line == "}":
                i += 1
                break
            fm = _FIELD_RE.match(line)
            if fm:
                cls.add_field(fm.group("name"), fm.group("type"))
                i += 1
                continue
            mm = _METHOD_RE.match(line)
            if not mm:
                raise ParseError(f"expected field or method, got {line!r}", i + 1)
            params = [p for p in _split_args(mm.group("params"))]
            sig = make_sig(cls.name, mm.group("name"), params, mm.group("ret"))
            is_static = bool(mm.group("static"))
            i += 1
            # abstract body?
            if i < n and lines[i].strip() == "// abstract":
                method = Method(sig, is_static=is_static, is_abstract=True, body=None)
                cls.add_method(method)
                i += 1
                if lines[i].strip() != "}":
                    raise ParseError("expected '}' after abstract marker", i + 1)
                i += 1
                continue
            method = Method(sig, is_static=is_static)
            cls.add_method(method)
            body = method.body
            assert body is not None
            mp = _MethodParser(body, i)
            # local declarations, labels, statements until '}'
            while i < n:
                raw = lines[i].strip()
                mp.line_no = i + 1
                if raw == "}":
                    i += 1
                    break
                if not raw or raw.startswith("//"):
                    i += 1
                    continue
                lm = _LABEL_RE.match(raw)
                if lm:
                    body.mark_label(lm.group("name"))
                    i += 1
                    continue
                if raw.endswith(";"):
                    stmt_text = raw[:-1].strip()
                    dm = _FIELD_RE.match(raw)
                    reserved = {"goto", "return", "throw", "if", "nop", "new", "lengthof"}
                    if (
                        dm
                        and dm.group("type") not in reserved
                        and " = " not in raw
                        and ":=" not in raw
                    ):
                        local = Local(dm.group("name"), parse_type(dm.group("type")))
                        body.declare_local(local)
                    else:
                        mp.statement(stmt_text)
                    i += 1
                    continue
                raise ParseError(f"cannot parse line {raw!r}", i + 1)
            # restore param/this locals metadata
            _rebind_identities(method)
            body._sealed = True
    return program


def _rebind_identities(method: Method) -> None:
    body = method.body
    assert body is not None
    for stmt in body:
        if isinstance(stmt, IdentityStmt):
            if isinstance(stmt.rhs, ThisRef):
                method.this_local = stmt.target
            elif isinstance(stmt.rhs, ParamRef):
                while len(method.param_locals) <= stmt.rhs.index:
                    method.param_locals.append(stmt.target)
                method.param_locals[stmt.rhs.index] = stmt.target
        else:
            break


__all__ = ["ParseError", "parse_program"]
