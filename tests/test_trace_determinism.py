"""Trace determinism and pipeline coverage.

The JSONL exporter must be byte-deterministic for a deterministic workload
(span ids hash span paths; timings are opt-in), and every corpus app's
trace must cover the paper's three phases plus one span per demarcation
point.
"""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Extractocol
from repro.apk.loader import load_apk, save_apk
from repro.corpus import app_keys, build_app, get_spec
from repro.obs.export import to_jsonl, validate_jsonl
from repro.obs.phases import PHASES
from repro.obs.tracer import Span

PHASE_SPANS = tuple(f"phase:{p}" for p in PHASES)


def _traced_run(apk, config) -> tuple[Span, object]:
    root = Span("repro")
    report = Extractocol(config, span=root).analyze(apk)
    return root, report


class TestDeterminism:
    def test_same_sapk_twice_is_byte_identical(self, tmp_path):
        path = save_apk(build_app("radioreddit"), tmp_path / "rr.sapk")
        texts = []
        for _ in range(2):
            root, _ = _traced_run(load_apk(path), AnalysisConfig())
            texts.append(to_jsonl(root))
        assert texts[0] == texts[1]
        validate_jsonl(texts[0])

    def test_timings_excluded_by_default(self):
        root, _ = _traced_run(
            get_spec("blippex").build_apk(), AnalysisConfig()
        )
        text = to_jsonl(root)
        assert '"seconds"' not in text
        assert '"seconds"' in to_jsonl(root, timings=True)


class TestCorpusCoverage:
    @pytest.mark.parametrize("key", app_keys())
    def test_trace_covers_all_phases_and_dps(self, key):
        spec = get_spec(key)
        config = AnalysisConfig(
            async_heuristic=(spec.kind == "closed"),
            scope_prefixes=spec.scope_prefixes,
        )
        root, report = _traced_run(spec.build_apk(), config)
        app_span = root.children[0]
        assert app_span.name == f"analyze:{spec.build_apk().name}" or (
            app_span.name.startswith("analyze:")
        )
        names = [c.name for c in app_span.children]
        for phase_span in PHASE_SPANS:
            assert phase_span in names, f"{key}: missing {phase_span}"
        slicing = next(c for c in app_span.children if c.name == "phase:slicing")
        dp_children = [c for c in slicing.children if c.name.startswith("dp:")]
        assert len(dp_children) == report.demarcation_points
        validate_jsonl(to_jsonl(root))


class TestPhaseStats:
    def test_report_carries_phase_stats(self):
        _, report = _traced_run(get_spec("blippex").build_apk(), AnalysisConfig())
        stats = report.phase_stats
        assert stats is not None
        assert set(PHASES) <= set(stats.seconds)
        assert stats.total_seconds == pytest.approx(sum(stats.seconds.values()))
        assert stats.counters["demarcation_points"] == report.demarcation_points

    def test_report_to_dict_omits_phase_stats_by_default(self):
        from repro.core.report import report_to_dict

        _, report = _traced_run(get_spec("blippex").build_apk(), AnalysisConfig())
        assert "phase_stats" not in report_to_dict(report)

    def test_phase_spans_carry_the_phase_stats_seconds(self):
        """One clock per phase: each ``phase:*`` span's seconds are the
        report's ``phase_stats`` figure, bit for bit."""
        config = AnalysisConfig(lint_level="record")
        root, report = _traced_run(get_spec("blippex").build_apk(), config)
        spans = {
            c.name.removeprefix("phase:"): c.seconds
            for c in root.children[0].children
        }
        assert set(spans) == set(PHASES) | {"lint"}
        assert spans == report.phase_stats.seconds

    def test_manifest_write_is_booked_under_its_own_phase(
        self, tmp_path, monkeypatch
    ):
        """A store-connected analysis times its fingerprint pass and
        manifest write as the ``manifest`` phase, not as slicing; runs
        that write no manifest have no such phase."""
        import time

        from repro.incr import manifest
        from repro.service.store import ResultStore

        pause = 0.25
        build_manifest = manifest.build_manifest

        def slow_build_manifest(*args, **kwargs):
            time.sleep(pause)
            return build_manifest(*args, **kwargs)

        monkeypatch.setattr(manifest, "build_manifest", slow_build_manifest)
        apk = get_spec("blippex").build_apk()
        store = ResultStore(tmp_path)
        root = Span("repro")
        engine = Extractocol(AnalysisConfig(), span=root, store=store)
        seconds = engine.analyze(apk).phase_stats.seconds
        assert engine.last_manifest is not None
        assert seconds["manifest"] >= pause
        assert seconds["slicing"] < pause
        spans = {
            c.name.removeprefix("phase:"): c.seconds
            for c in root.children[0].children
        }
        assert spans == seconds
        # a run without a store writes no manifest
        plain = Extractocol(AnalysisConfig()).analyze(apk)
        assert "manifest" not in plain.phase_stats.seconds

    def test_store_envelope_carries_phase_stats(self, tmp_path):
        from repro.service.store import ResultStore

        _, report = _traced_run(get_spec("blippex").build_apk(), AnalysisConfig())
        store = ResultStore(tmp_path)
        key = store.put("digest", "cfg", report)
        envelope = store.load(key)
        assert envelope["phase_stats"] == report.phase_stats.to_dict()
        # the report payload itself stays profile-free (byte-identity
        # contract of the content-addressed store)
        assert "phase_stats" not in envelope["report"]


class TestCliTrace:
    def test_analyze_trace_flag_writes_valid_jsonl(self, capsys, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "trace.jsonl"
        assert main(["analyze", "blippex", "--trace", str(out_file)]) == 0
        events = validate_jsonl(out_file.read_text())
        assert any(e["name"] == "phase:slicing" for e in events)

    def test_trace_verb_flame_output(self, capsys):
        from repro.cli import main

        assert main(["trace", "blippex", "--flame"]) == 0
        out = capsys.readouterr().out
        assert any(
            ";phase:signatures" in line for line in out.splitlines()
        )
