"""CLI tests (in-process via cli.main, plus one subprocess smoke test)."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.core.report import report_to_dict


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


#: a malformed synthesized key, one of an unknown family, and a lineage
#: label of an unknown family
UNKNOWN_KEYS = ["syn-bogus", "syn-nofam-s7-0000", "nosuch@v2"]


def unknown_key_message(target: str) -> str:
    """The message the registries raise for one of ``UNKNOWN_KEYS``."""
    from repro.corpus.lineage import build_version
    from repro.service.jobs import resolve_target

    with pytest.raises(KeyError) as info:
        (build_version if "@" in target else resolve_target)(target)
    (message,) = info.value.args
    return message


class TestCli:
    def test_corpus_listing(self, capsys):
        out = run_cli(capsys, "corpus")
        assert "diode" in out and "pinterest" in out
        open_only = run_cli(capsys, "corpus", "--kind", "open")
        assert "pinterest" not in open_only

    def test_analyze_corpus_key(self, capsys):
        out = run_cli(capsys, "analyze", "radioreddit")
        assert "transactions: 6" in out
        assert "api/vote" in out

    def test_analyze_json_output(self, capsys):
        out = run_cli(capsys, "analyze", "blippex", "--json")
        data = json.loads(out)
        assert data["app"] == "blippex"
        assert data["stats"]["GET"] == 1
        assert data["transactions"][0]["uri_regex"].startswith("^")

    def test_analyze_sapk_bundle(self, capsys, tmp_path):
        run_cli(capsys, "export", "wallabag", str(tmp_path / "w.sapk"))
        out = run_cli(capsys, "analyze", str(tmp_path / "w.sapk"))
        assert "transactions: 1" in out

    def test_analyze_unknown_target_exits(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "not-an-app"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["fuzz", "nosuch"],
        ["fuzz", "reddinator@v2"],
        ["fuzz", "syn-bogus"],
        ["export", "nosuch", "out.sapk"],
    ], ids=["fuzz", "fuzz-lineage-label", "fuzz-synth", "export"])
    def test_fuzz_and_export_reject_an_unknown_target(self, argv, tmp_path,
                                                      monkeypatch):
        """Bad input, not a crash: exit 2 with one stderr line naming the
        target, and nothing written."""
        monkeypatch.chdir(tmp_path)
        code, err = _exit_and_stderr(argv)
        assert code == 2, err
        assert err.count("\n") == 1 and f"'{argv[1]}'" in err, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", UNKNOWN_KEYS)
    @pytest.mark.parametrize("verb", [
        ["analyze"], ["trace"], ["lint"], ["explain", "{t}", "1", "uri"],
        ["export", "{t}", "out.sapk"], ["batch", "--store", "store"],
    ], ids=["analyze", "trace", "lint", "explain", "export", "batch"])
    def test_unknown_key_prints_its_message_unquoted(self, verb, target,
                                                     tmp_path, monkeypatch):
        """A malformed ``syn-`` key, an unknown synth family and an
        unknown lineage family are ``KeyError``s; stderr carries their
        message, not its repr in a second pair of quotes."""
        monkeypatch.chdir(tmp_path)
        argv = [a.replace("{t}", target) for a in verb]
        if "{t}" not in verb:
            argv.insert(1, target)
        code, err = _exit_and_stderr(argv)
        assert code == 2, err
        assert err == f"repro: {unknown_key_message(target)}\n"

    def test_export_takes_a_lineage_label(self, capsys, tmp_path):
        from repro.apk.loader import apk_digest, load_apk
        from repro.corpus.lineage import build_version

        path = tmp_path / "v2.sapk"
        run_cli(capsys, "export", "reddinator@v2", str(path))
        assert (apk_digest(load_apk(path))
                == apk_digest(build_version("reddinator@v2").apk))

    def test_unknown_mode_is_rejected(self, capsys):
        from repro import AnalysisConfig, Extractocol
        from repro.corpus import build_app

        with pytest.raises(SystemExit) as exc:
            main(["analyze", "ted", "--mode", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()  # swallow argparse's usage message
        with pytest.raises(ValueError, match="unknown analysis mode"):
            Extractocol(AnalysisConfig(mode="bogus")).analyze(
                build_app("ted")
            )

    def test_fuzz_modes(self, capsys):
        manual = run_cli(capsys, "fuzz", "radioreddit", "--mode", "manual")
        assert "6 transactions" in manual
        auto = run_cli(capsys, "fuzz", "radioreddit", "--mode", "auto")
        assert "4 transactions" in auto
        assert "[skipped]" in auto

    def test_no_async_heuristic_flag(self, capsys):
        with_h = json.loads(
            run_cli(capsys, "analyze", "weather", "--json", "--async-heuristic")
        )
        without = json.loads(
            run_cli(capsys, "analyze", "weather", "--json",
                    "--no-async-heuristic")
        )
        uri_with = next(t["uri_regex"] for t in with_h["transactions"]
                        if "forecast" in t["uri_regex"])
        uri_without = next(t["uri_regex"] for t in without["transactions"]
                           if "forecast" in t["uri_regex"])
        assert "lat" in uri_with
        assert "lat" not in uri_without

    def test_async_flags_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "weather", "--async-heuristic",
                  "--no-async-heuristic"])
        capsys.readouterr()  # swallow argparse's usage message

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "corpus"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "diode" in result.stdout


class TestBatch:
    def test_batch_cold_then_warm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        cold = run_cli(capsys, "batch", "diode", "tzm", "--store", store,
                       "--workers", "2")
        assert "2 jobs: 2 done (0 cached), 0 failed" in cold
        assert "analyses run: 2" in cold
        warm = run_cli(capsys, "batch", "diode", "tzm", "--store", store,
                       "--workers", "2")
        assert "2 jobs: 2 done (2 cached), 0 failed" in warm
        assert "analyses run: 0" in warm

    def test_batch_json_summary(self, capsys, tmp_path):
        out = run_cli(capsys, "batch", "wallabag", "--store",
                      str(tmp_path / "store"), "--json")
        data = json.loads(out)
        assert data["analyses_run"] == 1 and data["failed"] == 0
        assert data["jobs"][0]["target"] == "wallabag"
        assert data["jobs"][0]["status"] == "done"

    def test_batch_json_store_block_has_no_worker_counters(self, capsys,
                                                           tmp_path):
        """Workers count store hits and writes on their own stores, so
        the ``store`` block carries only what the batch itself reads: the
        entry count and the schema.  The job records carry the cache
        outcomes."""
        from repro.service.store import SCHEMA_VERSION

        argv = ("batch", "diode", "tzm", "--store", str(tmp_path / "s"),
                "--workers", "1", "--json", "--no-telemetry", "--no-ledger")
        cold = json.loads(run_cli(capsys, *argv))
        warm = json.loads(run_cli(capsys, *argv))
        assert (cold["analyses_run"], warm["cache_hits"]) == (2, 2)
        for data in (cold, warm):
            assert data["store"] == {"entries": 2, "schema": SCHEMA_VERSION}

    def test_batch_json_analyses_run_is_the_sum_of_job_counters(
        self, capsys, tmp_path
    ):
        """Every ``--json`` job record carries its ``counters``, and the
        top-level ``analyses_run`` is derived from them: two entries for
        one app share one analysis."""
        out = run_cli(capsys, "batch", "diode", "diode", "tzm", "--store",
                      str(tmp_path / "store"), "--workers", "2", "--json")
        data = json.loads(out)
        assert all("counters" in job for job in data["jobs"])
        assert data["analyses_run"] == sum(
            job["counters"].get("analyses_run", 0) for job in data["jobs"]
        ) == 2

    def test_batch_stores_what_analyze_prints_for_a_lineage_label(
        self, capsys, tmp_path
    ):
        """``repro batch`` resolves ``app@vN`` as ``repro analyze`` does:
        the stored payload is the report ``analyze --json`` prints."""
        from repro.service.store import ResultStore

        printed = json.loads(
            run_cli(capsys, "analyze", "reddinator@v2", "--json")
        )
        assert any("trending" in t["uri_regex"]
                   for t in printed["transactions"])  # v2's new endpoint
        out = run_cli(capsys, "batch", "reddinator@v2", "--store",
                      str(tmp_path / "s"), "--workers", "1", "--json",
                      "--no-telemetry", "--no-ledger")
        [job] = json.loads(out)["jobs"]
        assert (job["status"], job["label"]) == ("done", "reddinator@v2")
        stored = ResultStore(tmp_path / "s").load(job["result_key"])
        assert stored["report"] == printed

    def test_batch_unknown_target_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", "not-an-app", "--store", str(tmp_path / "s")])

    def test_one_worker_batch_beyond_the_daemon_queue_capacity(
        self, capsys, tmp_path
    ):
        """More targets than the daemon's 128-slot queue: a one-worker
        batch runs them in-process, never through that queue."""
        out = run_cli(capsys, "batch", "synth:transports*130@7", "--store",
                      str(tmp_path / "s"), "--workers", "1", "--json",
                      "--no-telemetry", "--no-ledger")
        data = json.loads(out)
        assert len(data["jobs"]) == 130
        assert all(job["status"] == "done" for job in data["jobs"])
        assert data["analyses_run"] == 130 and data["failed"] == 0

    def test_bad_start_method_fails_only_a_multi_worker_batch(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_START_METHOD", "not-a-method")
        store = tmp_path / "s"
        with pytest.raises(SystemExit) as exc:
            main(["batch", "diode", "ted", "--store", str(store),
                  "--workers", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fork" in err and "spawn" in err
        assert not list(store.rglob("*.json*"))  # nothing analyzed or logged
        # one worker runs in-process and never reads the variable
        out = run_cli(capsys, "batch", "diode", "--store", str(store),
                      "--workers", "1")
        assert "1 jobs: 1 done (0 cached), 0 failed" in out


class TestDiff:
    def test_self_diff_exits_zero(self, capsys, tmp_path):
        out = run_cli(capsys, "diff", "tzm", "tzm",
                      "--store", str(tmp_path / "s"))
        assert "verdict: identical" in out

    @pytest.mark.parametrize("target", UNKNOWN_KEYS)
    def test_bad_operand_says_why(self, target, tmp_path):
        """An operand of a target form whose family or shape is wrong
        fails with the reason target resolution gives."""
        code, err = _exit_and_stderr(
            ["diff", target, "diode", "--store", str(tmp_path / "s")]
        )
        assert code == 2, err
        assert err == f"repro: {unknown_key_message(target)}\n"

    def test_unknown_operand_names_every_target_form(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        code, err = _exit_and_stderr(["diff", "nosuch", "diode", "--store", store])
        assert code == 2, err
        assert err == (
            "repro: 'nosuch' is not a stored result key, corpus app, "
            "synthesized app (syn-<family>-s<seed>-<index>), lineage "
            "version (app@vN) or .sapk bundle\n"
        )
        key = "syn-transports-s7-0003"
        out = run_cli(capsys, "diff", key, key, "--store", store)
        assert "verdict: identical" in out

    def test_breaking_lineage_exits_one(self, capsys, tmp_path):
        rc = main(["diff", "reddinator@v1", "reddinator@v3",
                   "--store", str(tmp_path / "s")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "verdict: breaking" in out
        assert "txn3[$.json] -> txn4.body" in out

    def test_json_output_is_canonical_and_stable(self, capsys, tmp_path):
        argv = ["diff", "wallabag@v1", "wallabag@v2", "--json",
                "--store", str(tmp_path / "s")]
        assert main(argv) == 1
        first = capsys.readouterr().out
        data = json.loads(first)
        assert data["verdict"] == "breaking"
        assert main(argv) == 1
        assert capsys.readouterr().out == first  # byte-identical rerun

    def test_markdown_output(self, capsys, tmp_path):
        rc = main(["diff", "reddinator@v1", "reddinator@v2", "--markdown",
                   "--store", str(tmp_path / "s")])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("# Protocol diff:")
        assert "Verdict: compatible" in out

    def test_explicit_store_is_created_and_filled(self, capsys, tmp_path):
        """An explicit ``--store`` that does not exist yet is created and
        used, like ``repro analyze --store``; the rerun reads it back.  A
        usage error creates nothing."""
        from repro.apk.loader import apk_digest
        from repro.service.jobs import resolve_target
        from repro.service.store import ResultStore, result_key

        fresh = tmp_path / "fresh"
        with pytest.raises(SystemExit):
            main(["diff", "--store", str(fresh)])
        assert not fresh.exists()
        argv = ["diff", "tzm", "tzm", "--store", str(fresh), "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        apk, config, _ = resolve_target("tzm")
        key = result_key(apk_digest(apk), config.cache_key())
        assert ResultStore(fresh).lookup(key) is not None
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_latest_two_store_versions(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        # store v1 and v3 of the lineage as if they were two releases
        from repro.apk.loader import apk_digest
        from repro.core.extractocol import Extractocol
        from repro.corpus import build_version
        from repro.service.store import ResultStore

        rs = ResultStore(store)
        for label in ("reddinator@v1", "reddinator@v3"):
            built = build_version(label)
            report = Extractocol(built.config).analyze(built.apk)
            rs.put(apk_digest(built.apk), built.config.cache_key(), report)

        rc = main(["diff", "--latest", "Reddinator", "--store", store])
        out = capsys.readouterr().out
        assert rc == 1
        assert "dependency-removed" in out

    def test_latest_needs_two_versions(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["diff", "--latest", "ghost", "--store", str(tmp_path / "s")])

    def test_missing_targets_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["diff", "--store", str(tmp_path / "s")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["diff", "tzm", "no-such-app",
                  "--store", str(tmp_path / "s")])
        assert exc.value.code == 2


_MEMBERS = ("manifest.json", "resources.json", "entrypoints.json",
            "classes.jimple")


@pytest.fixture(scope="module")
def wallabag_bundle(tmp_path_factory):
    from repro.apk.loader import save_apk
    from repro.corpus import build_app

    return save_apk(build_app("wallabag"),
                    tmp_path_factory.mktemp("bundle") / "wallabag.sapk")


def _exit_and_stderr(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestMalformedBundles:
    """A bundle member that does not load is an input error: every verb
    that reads a bundle exits 2 with one stderr line naming the member,
    never with a traceback, and never with the 1 that ``diff`` and
    ``lint`` reserve for a verdict.  A mutated bundle that still loads is
    a program like any other: ``analyze`` on it exits 0."""

    @settings(max_examples=30, deadline=None)
    @given(member=st.sampled_from(_MEMBERS),
           flip=st.integers(0, 255), at=st.integers(0, 2**20))
    @example(member="classes.jimple", flip=0, at=200)
    @example(member="classes.jimple", flip=0x9C, at=0)  # "c" -> \xff
    @example(member="entrypoints.json", flip=0, at=5)  # "[\n  {"
    @example(member="manifest.json", flip=0, at=0)  # empty
    @example(member="classes.jimple", flip=0x01, at=1280)  # 'http://...&
    @example(member="classes.jimple", flip=0x04, at=2072)  # HttpGet -> HttpGat
    def test_truncated_or_flipped_member_exits_2_or_analyzes(
        self, wallabag_bundle, member, flip, at
    ):
        """``flip`` 0 truncates the member at ``at``; any other value is
        XOR-ed into the byte there."""
        from repro.apk.loader import load_apk
        from repro.apk.model import BundleError

        data = (wallabag_bundle / member).read_bytes()
        at %= len(data)
        if flip:
            data = data[:at] + bytes([data[at] ^ flip]) + data[at + 1:]
        else:
            data = data[:at]
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad.sapk"
            shutil.copytree(wallabag_bundle, bad)
            (bad / member).write_bytes(data)
            try:
                load_apk(bad)
            except BundleError:
                pass
            else:
                code, err = _exit_and_stderr(["analyze", str(bad)])
                assert code == 0, err
                return
            for argv in (
                ["analyze", str(bad)],
                ["lint", str(bad)],
                ["diff", str(bad), str(wallabag_bundle)],
                ["explain", str(bad), "1", "uri"],
                ["trace", str(bad)],
            ):
                code, err = _exit_and_stderr(argv)
                assert code == 2, (argv, err)
                assert err.count("\n") == 1 and member in err, (argv, err)


@pytest.fixture(scope="module")
def undefined_label_bundle(tmp_path_factory):
    """radioreddit with its first ``goto BUILD;`` retargeted at a label
    no body defines: the bundle loads, but its program is malformed."""
    from repro.apk.loader import save_apk
    from repro.corpus import build_app

    path = save_apk(build_app("radioreddit"),
                    tmp_path_factory.mktemp("bundle") / "r.sapk")
    jimple = path / "classes.jimple"
    text = jimple.read_text()
    assert "goto BUILD;" in text
    jimple.write_text(text.replace("goto BUILD;", "goto NOWHERE;", 1))
    return path


class TestUndefinedBranchLabel:
    """A branch to an undefined label is bad input to an analysis: one
    stderr line naming the bundle and the label, exit 2.  ``lint`` still
    reads the program and reports the branch as IR002."""

    @pytest.mark.parametrize("verb", ["analyze", "trace"])
    def test_analysis_verbs_exit_2_naming_bundle_and_label(
        self, undefined_label_bundle, verb
    ):
        code, err = _exit_and_stderr([verb, str(undefined_label_bundle)])
        assert code == 2, err
        assert err.count("\n") == 1, err
        assert str(undefined_label_bundle) in err and "'NOWHERE'" in err

    @pytest.mark.parametrize("argv", [
        ["diff", "{bundle}", "diode"],
        ["diff", "diode", "{bundle}"],
        ["explain", "{bundle}", "1", "uri"],
    ], ids=["diff-old", "diff-new", "explain"])
    def test_diff_and_explain_exit_2_naming_the_bundle(
        self, undefined_label_bundle, argv, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "no-store"))
        bundle = str(undefined_label_bundle)
        code, err = _exit_and_stderr(
            [bundle if arg == "{bundle}" else arg for arg in argv]
        )
        assert code == 2, err
        assert err == f"repro: {bundle}: undefined label 'NOWHERE'\n", err

    @pytest.mark.parametrize("extra", [[], ["--analyze"]],
                             ids=["lint", "lint-analyze"])
    def test_lint_reports_ir002(self, undefined_label_bundle, capsys, extra):
        assert main(["lint", str(undefined_label_bundle), *extra]) == 1
        out = capsys.readouterr().out
        assert "IR002" in out and "'NOWHERE'" in out


class TestReportDict:
    def test_roundtrips_through_json(self):
        from repro import AnalysisConfig, Extractocol
        from repro.corpus import build_app

        report = Extractocol(AnalysisConfig()).analyze(build_app("ted"))
        data = json.loads(json.dumps(report_to_dict(report)))
        assert len(data["transactions"]) == len(report.transactions)
        media = [t for t in data["transactions"]
                 if "media_player" in t["consumers"]]
        assert media
        assert any(t["dynamic_uri"] for t in data["transactions"])


class TestSynthCli:
    def test_corpus_listing_includes_lineage_versions(self, capsys):
        out = run_cli(capsys, "corpus")
        # discoverable labels match what build_version() accepts
        for label in ("reddinator@v1", "reddinator@v3", "wallabag@v2",
                      "twister@v2", "tzm@v2"):
            assert label in out

    def test_corpus_synth_listing(self, capsys):
        out = run_cli(capsys, "corpus", "--synth", "synth:mega*3@7")
        assert "synth:mega*3@7" in out
        assert "syn-mega-s7-0000" in out and "syn-mega-s7-0002" in out

    def test_corpus_synth_summary_and_digest_stable(self, capsys):
        argv = ("corpus", "synth", "--families", "transports,evolution",
                "--scale", "8", "--seed", "7")
        first = run_cli(capsys, *argv)
        assert "population synth:transports,evolution*8@7" in first
        assert "population digest:" in first
        assert run_cli(capsys, *argv) == first  # deterministic rerun

    def test_corpus_synth_json_manifest(self, capsys):
        out = run_cli(capsys, "corpus", "synth", "synth:hazards*2@5",
                      "--json")
        manifest = json.loads(out)
        assert manifest["totals"]["apps"] == 2
        assert manifest["apps"][0]["key"] == "syn-hazards-s5-0000"
        assert manifest["apps"][0]["truth"]["total"] >= 1

    def test_corpus_synth_export(self, capsys, tmp_path):
        run_cli(capsys, "corpus", "synth", "synth:mega*2@7",
                "--export", str(tmp_path))
        bundles = sorted(p.name for p in tmp_path.glob("*.sapk"))
        assert bundles == ["syn-mega-s7-0000.sapk", "syn-mega-s7-0001.sapk"]

    def test_analyze_synth_key(self, capsys):
        out = run_cli(capsys, "analyze", "syn-transports-s7-0003")
        assert "transactions: 1" in out

    def test_analyze_malformed_synth_key_exits(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "syn-ghost-s7-0000"])
        assert exc.value.code == 2

    def test_batch_population_spec(self, capsys, tmp_path):
        out = run_cli(capsys, "batch", "--corpus", "synth:mega*3@7",
                      "--store", str(tmp_path / "store"), "--workers", "2")
        assert "3 jobs: 3 done (0 cached), 0 failed" in out

    def test_eval_synth_scores_against_truth(self, capsys):
        out = run_cli(capsys, "eval", "synth",
                      "--corpus", "synth:transports,evolution*6@7")
        assert "Synthesized-corpus evaluation" in out
        assert "6/6" in out.splitlines()[-1]  # total row: all exact

    def test_lint_synth_population(self, capsys):
        out = run_cli(capsys, "lint", "--corpus", "synth:payloads*2@7")
        assert "0 error(s)" in out

    def test_diff_synth_lineage(self, capsys, tmp_path):
        from repro.synth import parse_population, synth_lineage

        key = next(
            k for k in parse_population("synth:evolution*5@7").keys()
            if "rename_query_key" in synth_lineage(k)[-1].description
        )
        rc = main(["diff", f"{key}@v1", f"{key}@v2",
                   "--store", str(tmp_path / "s")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "query-key-removed" in out
