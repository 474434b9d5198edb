"""The ``AnalysisConfig.lint_level`` gate: off/record/error/strict
semantics, the byte-identity contract for clean reports, findings carried
on the report (and in its dict form), and the store envelope's
severity totals."""

from __future__ import annotations

import json

import pytest

from repro import AnalysisConfig, Extractocol
from repro.apk.loader import apk_digest
from repro.apk.model import Apk, EntryPoint, TriggerKind
from repro.apk.manifest import Manifest
from repro.core.report import report_to_dict
from repro.corpus import build_app
from repro.ir.builder import ProgramBuilder
from repro.lint.diagnostics import Severity, make_finding
from repro.lint.runner import LintGateError, LintReport, gate
from repro.service.store import ResultStore


def _apk(*, warning_only: bool) -> Apk:
    """A tiny analyzable app with exactly one planted lint finding."""
    pb = ProgramBuilder()
    cb = pb.class_("com.ex.Main")
    main = cb.method("onCreate")
    main.ret_void()
    if warning_only:
        g = cb.method("get", returns="int", static=True)
        g.ret_void()  # IR015 (warning): bare return in a non-void method
    else:
        pb.class_("com.ex.B")
        g = cb.method("get", returns="com.ex.B")
        g.ret(g.this)  # IR014 (error): returns com.ex.Main, unrelated
    return Apk(
        manifest=Manifest(package="com.ex", label="planted"),
        program=pb.build(),
        entrypoints=[
            EntryPoint(method_id=main.method.method_id, kind=TriggerKind.LIFECYCLE)
        ],
    )


class TestGateFunction:
    def test_off_and_record_never_block(self):
        report = LintReport("x", [make_finding("IR001", "boom")])
        gate(report, "off")
        gate(report, "record")

    def test_error_blocks_on_errors_only(self):
        errors = LintReport("x", [make_finding("IR001", "boom")])
        with pytest.raises(LintGateError) as exc:
            gate(errors, "error")
        assert "IR001" in str(exc.value)
        warnings = LintReport("x", [make_finding("IR015", "meh")])
        gate(warnings, "error")  # warnings pass at "error"

    def test_strict_blocks_on_warnings_too(self):
        warnings = LintReport("x", [make_finding("IR015", "meh")])
        with pytest.raises(LintGateError):
            gate(warnings, "strict")

    def test_unknown_level_is_a_value_error(self):
        with pytest.raises(ValueError):
            gate(LintReport("x"), "pedantic")


class TestPipelineGate:
    def test_record_on_clean_app_is_byte_identical_to_off(self):
        apk = build_app("radioreddit")
        off = Extractocol(AnalysisConfig()).analyze(apk)
        record = Extractocol(AnalysisConfig(lint_level="record")).analyze(apk)
        assert json.dumps(report_to_dict(off), sort_keys=True) == json.dumps(
            report_to_dict(record), sort_keys=True
        )

    def test_record_carries_findings_and_round_trips(self):
        report = Extractocol(AnalysisConfig(lint_level="record")).analyze(
            _apk(warning_only=False)
        )
        assert any(f.rule == "IR014" for f in report.lint_findings)
        data = report_to_dict(report)
        assert data["lint"] == [f.to_dict() for f in report.lint_findings]
        assert json.loads(json.dumps(data)) == data

    def test_record_times_the_lint_phase(self):
        report = Extractocol(AnalysisConfig(lint_level="record")).analyze(
            build_app("diode")
        )
        assert report.phase_stats.seconds["lint"] >= 0
        assert "lint" not in report_to_dict(report)  # clean app: no key

    def test_error_level_aborts_before_the_pipeline(self):
        engine = Extractocol(AnalysisConfig(lint_level="error"))
        with pytest.raises(LintGateError) as exc:
            engine.analyze(_apk(warning_only=False))
        assert "IR014" in str(exc.value)
        assert engine.last_slicing is None  # never got to slicing

    def test_error_level_passes_a_warning_only_app(self):
        report = Extractocol(AnalysisConfig(lint_level="error")).analyze(
            _apk(warning_only=True)
        )
        assert [f.rule for f in report.lint_findings] == ["IR015"]
        assert all(f.severity == Severity.WARNING for f in report.lint_findings)

    def test_strict_level_blocks_warnings(self):
        with pytest.raises(LintGateError):
            Extractocol(AnalysisConfig(lint_level="strict")).analyze(
                _apk(warning_only=True)
            )

    def test_lint_level_shards_the_cache_key(self):
        assert (
            AnalysisConfig(lint_level="record").cache_key()
            != AnalysisConfig().cache_key()
        )


class TestStoreEnvelope:
    def test_findings_travel_in_the_report_only(self, tmp_path):
        """The envelope keeps no severity totals: the findings are in the
        report payload's ``lint`` key and nowhere else."""
        apk = _apk(warning_only=False)
        config = AnalysisConfig(lint_level="record")
        report = Extractocol(config).analyze(apk)
        store = ResultStore(tmp_path / "store")
        key = store.put(apk_digest(apk), config.cache_key(), report)
        envelope = json.loads(store.path_for(key).read_text())
        assert "lint" not in envelope
        assert envelope["report"]["lint"] == [
            f.to_dict() for f in report.lint_findings
        ]
        assert any(f["severity"] == "error" for f in envelope["report"]["lint"])

    def test_clean_report_has_no_lint_key(self, tmp_path):
        apk = build_app("diode")
        config = AnalysisConfig(lint_level="record")
        report = Extractocol(config).analyze(apk)
        store = ResultStore(tmp_path / "store")
        key = store.put(apk_digest(apk), config.cache_key(), report)
        envelope = json.loads(store.path_for(key).read_text())
        assert "lint" not in envelope
        assert "lint" not in envelope["report"]
