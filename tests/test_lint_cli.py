"""The ``repro lint`` CLI verb: exit codes, ``--json``/``--jsonl`` output,
and the baseline suppression workflow."""

from __future__ import annotations

import json

import pytest

from repro.apk.loader import save_apk
from repro.apk.model import Apk, EntryPoint, TriggerKind
from repro.apk.manifest import Manifest
from repro.cli import main
from repro.ir.builder import ProgramBuilder
from repro.lint import validate_findings_jsonl


@pytest.fixture
def broken_sapk(tmp_path):
    """An .sapk bundle with one planted IR014 error."""
    pb = ProgramBuilder()
    cb = pb.class_("com.ex.Main")
    mainm = cb.method("onCreate")
    mainm.ret_void()
    pb.class_("com.ex.B")
    g = cb.method("get", returns="com.ex.B")
    g.ret(g.this)
    apk = Apk(
        manifest=Manifest(package="com.ex", label="planted"),
        program=pb.build(),
        entrypoints=[
            EntryPoint(
                method_id=mainm.method.method_id, kind=TriggerKind.LIFECYCLE
            )
        ],
    )
    path = tmp_path / "planted.sapk"
    save_apk(apk, path)
    return path


class TestLintCli:
    def test_single_clean_app_exits_zero(self, capsys):
        assert main(["lint", "diode"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "0 error(s)" in out

    def test_whole_corpus_json(self, capsys):
        assert main(["lint", "--all", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["apps"] >= 34
        assert payload["totals"]["errors"] == 0
        assert payload["totals"]["new_errors"] == 0
        assert {app["target"] for app in payload["apps"]} >= {"diode", "ted"}

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_all_keeps_the_population_and_named_targets(self, capsys,
                                                        monkeypatch, via):
        """``--all`` adds the corpus apps to the ``--corpus`` population
        (given by flag or by ``$REPRO_CORPUS``) and to named targets; it
        drops neither, and lints an app named twice once."""
        from repro.corpus import app_keys
        from repro.synth import parse_population

        spec = "synth:payloads*2@7"
        argv = ["lint", "--all", "--json", "diode"]
        if via == "env":
            monkeypatch.setenv("REPRO_CORPUS", spec)
        else:
            argv += ["--corpus", spec]
        assert main(argv) == 0
        targets = [app["target"]
                   for app in json.loads(capsys.readouterr().out)["apps"]]
        assert targets == app_keys() + list(parse_population(spec).keys())

    def test_jsonl_output_validates(self, capsys):
        assert main(["lint", "diode", "radioreddit", "--jsonl"]) == 0
        events = validate_findings_jsonl(capsys.readouterr().out)
        assert events == []  # both apps are clean

    def test_error_findings_exit_nonzero(self, capsys, broken_sapk):
        assert main(["lint", str(broken_sapk)]) == 1
        out = capsys.readouterr().out
        assert "IR014" in out
        assert "1 error(s)" in out

    def test_json_reports_planted_error(self, capsys, broken_sapk):
        assert main(["lint", str(broken_sapk), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["errors"] == 1
        assert payload["totals"]["new_errors"] == 1
        rules = [
            f["rule"]
            for app in payload["apps"]
            for f in app["findings"]
        ]
        assert "IR014" in rules

    def test_baseline_workflow_suppresses_known_debt(
        self, capsys, tmp_path, broken_sapk
    ):
        baseline = tmp_path / "lint-baseline.json"
        # 1. Write the baseline: records the planted error, exits 0.
        assert main(
            ["lint", str(broken_sapk), "--write-baseline", str(baseline)]
        ) == 0
        capsys.readouterr()
        data = json.loads(baseline.read_text())
        assert data["version"] == 1
        assert any("IR014" in fp for fp in data["fingerprints"])
        # 2. Re-lint against the baseline: the error is known debt now.
        assert main(["lint", str(broken_sapk), "--baseline", str(baseline)]) == 0
        assert "covered by baseline" in capsys.readouterr().out
        # 3. Without the baseline the same run still fails.
        assert main(["lint", str(broken_sapk)]) == 1
        capsys.readouterr()

    def test_missing_baseline_file_is_ignored(self, capsys, broken_sapk):
        assert main(
            ["lint", str(broken_sapk), "--baseline", "/nonexistent.json"]
        ) == 1
        capsys.readouterr()
