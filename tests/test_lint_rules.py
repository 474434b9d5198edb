"""Every lint rule id is provably reachable: one deliberately broken IR
fixture per rule in :data:`repro.lint.diagnostics.RULES`, plus the
machine-readability contract (deterministic order, dict round-trip, JSONL
schema validation)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.classes import ClassDef
from repro.ir.method import Method
from repro.ir.program import Program
from repro.ir.statements import AssignStmt, IdentityStmt, InvokeStmt, ReturnStmt
from repro.ir.types import INT, VOID, class_t
from repro.ir.values import IntConst, InvokeExpr, Local, MethodSig, NewExpr, ParamRef
from repro.lint.diagnostics import (
    RULES,
    Severity,
    findings_to_jsonl,
    make_finding,
    sort_findings,
    validate_findings_jsonl,
)
from repro.lint.runner import lint_program
from repro.lint.dataflow import dataflow_program
from repro.lint.signature import signature_report
from repro.lint.soundness import soundness_program
from repro.lint.typecheck import typecheck_program


def _typecheck(pb: ProgramBuilder):
    findings, _ = typecheck_program(pb.build())
    return findings


def _dataflow(pb: ProgramBuilder):
    program = pb.build()
    _, cfg_unsafe = typecheck_program(program)
    return dataflow_program(program, cfg_unsafe)


# ---------------------------------------------------------------------------
# IR0xx — structural + typechecker fixtures.


def fx_ir001():
    # An empty, unsealed body (seal() would pad it with a return).
    program = Program()
    cls = ClassDef("app.A")
    program.add_class(cls)
    cls.add_method(Method(MethodSig.of("app.A", "empty", (), "void"), is_static=True))
    findings, _ = typecheck_program(program)
    return findings


def fx_ir002():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", static=True)
    m.goto("nowhere")
    m.ret_void()
    return _typecheck(pb)


def fx_ir003():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", static=True)
    m.goto("X")
    m.label("X")
    m.ret_void()
    program = pb.build()
    body = program.classes["app.A"].find_methods("go")[0].body
    body.labels["X"] = 999
    findings, _ = typecheck_program(program)
    return findings


def fx_ir004():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", params=["int"], static=True)
    x = m.local("x", "int")
    m.assign(x, 1)
    m.emit(IdentityStmt(m.local("late", "int"), ParamRef(0, INT)))
    m.ret_void()
    return _typecheck(pb)


def fx_ir005():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", static=True)
    m.emit(IdentityStmt(m.local("x", "int"), IntConst(7)))
    m.ret_void()
    return _typecheck(pb)


def fx_ir006():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", static=True)
    x = m.local("x", "int")
    m.emit(AssignStmt(x, Local("ghost", INT)))  # never declared
    m.ret_void()
    return _typecheck(pb)


def fx_ir007():
    # Unsealed body ending in a falls-through statement.
    program = Program()
    cls = ClassDef("app.A")
    program.add_class(cls)
    method = Method(MethodSig.of("app.A", "go", (), "void"), is_static=True)
    cls.add_method(method)
    x = method.body.declare_local(Local("x", INT))
    method.body.add(AssignStmt(x, IntConst(1)))
    findings, _ = typecheck_program(program)
    return findings


def fx_ir008():
    pb = ProgramBuilder()
    pb.class_("app.A", superclass="app.B")
    pb.class_("app.B", superclass="app.A")
    return _typecheck(pb)


def fx_ir010():
    pb = ProgramBuilder()
    pb.class_("app.B")
    m = pb.class_("app.A").method("go", static=True)
    a = m.local("a", "app.A")
    m.assign(a, NewExpr(class_t("app.B")))
    m.ret_void()
    return _typecheck(pb)


def fx_ir011():
    pb = ProgramBuilder()
    pb.class_("app.B")
    m = pb.class_("app.A").method("go")
    m.cast(m.this, "app.B")
    m.ret_void()
    return _typecheck(pb)


def fx_ir012():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", static=True)
    sig = MethodSig("app.A", "takes", (INT,), VOID)
    m.emit(InvokeStmt(InvokeExpr("static", sig, None, ())))
    m.ret_void()
    return _typecheck(pb)


def fx_ir013():
    pb = ProgramBuilder()
    pb.class_("app.B")
    m = pb.class_("app.A").method("go")
    sig = MethodSig("app.A", "takes", (class_t("app.B"),), VOID)
    m.emit(InvokeStmt(InvokeExpr("virtual", sig, m.this, (m.this,))))
    m.ret_void()
    return _typecheck(pb)


def fx_ir014():
    pb = ProgramBuilder()
    pb.class_("app.B")
    m = pb.class_("app.A").method("get", returns="app.B")
    m.ret(m.this)  # app.A is unrelated to the declared app.B
    return _typecheck(pb)


def fx_ir015():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("get", returns="int", static=True)
    m.ret_void()
    return _typecheck(pb)


def fx_ir016():
    pb = ProgramBuilder()
    pb.class_("app.B")
    cb = pb.class_("app.A")
    cb.field("f", "app.B")
    m = cb.method("go")
    m.putfield(m.this, "f", m.this)
    m.ret_void()
    return _typecheck(pb)


def fx_ir017():
    pb = ProgramBuilder()
    pb.class_("app.B")
    cb = pb.class_("app.A")
    callee = cb.method("get", returns="app.A", static=True)
    a = callee.new("app.A")
    callee.ret(a)
    m = cb.method("go", static=True)
    # Call site lies about the return type of a resolvable app target.
    sig = MethodSig("app.A", "get", (), class_t("app.B"))
    r = m.local("r", "app.B")
    m.assign(r, InvokeExpr("static", sig, None, ()))
    m.ret_void()
    return _typecheck(pb)


# ---------------------------------------------------------------------------
# DF0xx — CFG dataflow fixtures.


def fx_df001():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", params=["int"], static=True)
    x = m.local("x", "int")
    m.if_goto(m.param(0), "==", 0, "SKIP")
    m.assign(x, 1)
    m.label("SKIP")
    m.binop("+", x, 1)  # x unassigned on the branch-taken path
    m.ret_void()
    return _dataflow(pb)


def fx_df002():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", static=True)
    x = m.local("x", "int")
    m.ret_void()
    m.assign(x, 1)  # unreachable
    m.ret_void()
    return _dataflow(pb)


def fx_df003():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", static=True)
    m.let("waste", "int", 1)  # named local, never read
    m.ret_void()
    return _dataflow(pb)


# ---------------------------------------------------------------------------
# SEM0xx — pipeline-soundness fixtures.


def fx_sem001():
    pb = ProgramBuilder()
    m = pb.class_("app.Net").method("ping", static=True)
    m.scall(
        "java.net.NetworkInterface", "getHardwareAddress", [], "java.lang.Object"
    )
    m.ret_void()
    return soundness_program(pb.build())


def fx_sem002():
    pb = ProgramBuilder()
    m = pb.class_("app.A").method("go", static=True)
    t = m.new("android.widget.Toast")
    m.vcall(t, "show", [], "void")
    m.ret_void()
    return soundness_program(pb.build())


def fx_sem003():
    pb = ProgramBuilder()
    cb = pb.class_("app.Main")
    main = cb.method("onCreate")
    main.ret_void()
    fetch = cb.method("fetch")  # nothing calls this
    client = fetch.new("org.apache.http.impl.client.DefaultHttpClient")
    req = fetch.new("org.apache.http.client.methods.HttpGet", ["http://x/"])
    fetch.vcall(client, "execute", [req], "org.apache.http.HttpResponse")
    fetch.ret_void()
    return soundness_program(pb.build(), [main.method.method_id])


def fx_sem004():
    pb = ProgramBuilder()
    m = pb.class_("app.Main").method("go")
    q = m.new("com.android.volley.RequestQueue")
    req = m.new("com.android.volley.Request")  # no app listener class
    m.vcall(q, "add", [req], "java.lang.Object")
    m.ret_void()
    return soundness_program(pb.build(), [m.method.method_id])


def fx_sem005():
    pb = ProgramBuilder()
    m = pb.class_("app.Main").method("go")
    m.ret_void()
    return soundness_program(pb.build(), ["<app.Ghost: void gone()>"])


# ---------------------------------------------------------------------------
# SIG0xx — post-analysis signature fixtures (report-shaped stand-ins).


def fx_sig001():
    report = SimpleNamespace(
        unidentified=[
            SimpleNamespace(
                txn_id=1,
                request=SimpleNamespace(method="GET", uri_regex="(.*)"),
                site=None,
            )
        ],
        transactions=[],
        demarcation_points=1,
    )
    return signature_report(report)


def fx_sig002():
    slicing = SimpleNamespace(
        slices=[
            SimpleNamespace(
                request=SimpleNamespace(stmts=set()),
                response=SimpleNamespace(stmts=set()),
                dp=SimpleNamespace(
                    spec=SimpleNamespace(class_name="C", method_name="m"),
                    site=SimpleNamespace(method_id="<app.C: void go()>", index=3),
                ),
            )
        ]
    )
    report = SimpleNamespace(
        unidentified=[], transactions=[object()], demarcation_points=1
    )
    return signature_report(report, slicing)


def fx_sig003():
    report = SimpleNamespace(
        unidentified=[], transactions=[], demarcation_points=2
    )
    return signature_report(report)


#: One fixture per registered rule — the collection-time completeness
#: assertion below is the acceptance criterion "every rule id provably
#: reachable".
FIXTURES = {
    "IR001": fx_ir001, "IR002": fx_ir002, "IR003": fx_ir003,
    "IR004": fx_ir004, "IR005": fx_ir005, "IR006": fx_ir006,
    "IR007": fx_ir007, "IR008": fx_ir008, "IR010": fx_ir010,
    "IR011": fx_ir011, "IR012": fx_ir012, "IR013": fx_ir013,
    "IR014": fx_ir014, "IR015": fx_ir015, "IR016": fx_ir016,
    "IR017": fx_ir017,
    "DF001": fx_df001, "DF002": fx_df002, "DF003": fx_df003,
    "SEM001": fx_sem001, "SEM002": fx_sem002, "SEM003": fx_sem003,
    "SEM004": fx_sem004, "SEM005": fx_sem005,
    "SIG001": fx_sig001, "SIG002": fx_sig002, "SIG003": fx_sig003,
}

assert set(FIXTURES) == set(RULES), (
    "fixture table out of sync with the rule registry: "
    f"missing {set(RULES) - set(FIXTURES)}, stale {set(FIXTURES) - set(RULES)}"
)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_is_reachable(rule):
    findings = FIXTURES[rule]()
    hits = [f for f in findings if f.rule == rule]
    assert hits, (
        f"fixture for {rule} produced no {rule} finding; got "
        f"{[str(f) for f in findings]}"
    )
    for f in hits:
        assert f.severity == RULES[rule].severity
        assert f.message
        assert isinstance(f.index, int)


class TestDeterminism:
    def test_sort_is_canonical_and_stable(self):
        findings = fx_ir008() + fx_df001() + fx_sem005() + fx_sig003()
        assert sort_findings(list(reversed(findings))) == sort_findings(findings)
        ordered = sort_findings(findings)
        keys = [(f.rule, f.class_name, f.method_id, f.index) for f in ordered]
        assert keys == sorted(keys)

    def test_two_runs_are_byte_identical(self):
        a = findings_to_jsonl(fx_df001())
        b = findings_to_jsonl(fx_df001())
        assert a == b

    def test_lint_program_output_is_sorted(self):
        pb = ProgramBuilder()
        pb.class_("app.B")
        m = pb.class_("app.A").method("get", returns="app.B")
        m.ret(m.this)
        findings = lint_program(pb.build())
        assert findings == sort_findings(findings)


class TestSerialisation:
    def test_fingerprint_excludes_the_message(self):
        a = make_finding("DF001", "one wording", method_id="<m>", index=3)
        b = make_finding("DF001", "another wording", method_id="<m>", index=3)
        assert a.fingerprint() == b.fingerprint()
        c = make_finding("DF001", "one wording", method_id="<m>", index=4)
        assert a.fingerprint() != c.fingerprint()

    def test_make_finding_uses_registered_severity(self):
        assert make_finding("DF003", "x").severity == Severity.INFO
        assert make_finding("IR001", "x").severity == Severity.ERROR
        with pytest.raises(KeyError):
            make_finding("IR999", "no such rule")


class TestJsonlSchema:
    def test_round_trip_validates(self):
        findings = sort_findings(fx_ir008() + fx_df002())
        events = validate_findings_jsonl(findings_to_jsonl(findings))
        assert len(events) == len(findings)
        assert [e["rule"] for e in events] == [f.rule for f in findings]

    def test_empty_findings_still_has_meta(self):
        text = findings_to_jsonl([])
        assert validate_findings_jsonl(text) == []

    def test_rejects_empty_document(self):
        with pytest.raises(ValueError):
            validate_findings_jsonl("")

    def test_rejects_bad_meta(self):
        good = findings_to_jsonl(fx_df003())
        lines = good.splitlines()
        with pytest.raises(ValueError):
            validate_findings_jsonl("\n".join(lines[1:]))  # meta dropped

    def test_rejects_unknown_rule(self):
        text = findings_to_jsonl(fx_df003()).replace("DF003", "ZZ999")
        with pytest.raises(ValueError):
            validate_findings_jsonl(text)

    def test_rejects_unknown_severity(self):
        text = findings_to_jsonl(fx_df003()).replace('"info"', '"fatal"')
        with pytest.raises(ValueError):
            validate_findings_jsonl(text)

    def test_rejects_count_mismatch(self):
        text = findings_to_jsonl(fx_df003()).replace(
            '"findings":1', '"findings":7'
        )
        with pytest.raises(ValueError):
            validate_findings_jsonl(text)

    def test_rejects_missing_key(self):
        import json

        lines = findings_to_jsonl(fx_df003()).splitlines()
        event = json.loads(lines[1])
        del event["method"]
        with pytest.raises(ValueError):
            validate_findings_jsonl(
                "\n".join([lines[0], json.dumps(event)]) + "\n"
            )
