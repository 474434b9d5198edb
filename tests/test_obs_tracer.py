"""Tests for spans, the null span and the trace exporters."""

from __future__ import annotations

import json

import pytest

from repro import Extractocol
from repro.corpus import app_keys
from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    collapsed_stacks,
    span_events,
    to_jsonl,
    validate_jsonl,
)
from repro.obs.tracer import NULL_SPAN, Span
from repro.service.jobs import resolve_target


class TestSpan:
    def test_nesting_and_path(self):
        root = Span("root")
        a = root.child("a")
        b = a.child("b")
        assert b.path == "root/a/b"
        assert root.children == [a]
        assert a.children == [b]

    def test_sibling_name_collisions_get_suffixes(self):
        root = Span("root")
        first = root.child("dp")
        second = root.child("dp")
        third = root.child("dp")
        assert first.name == "dp"
        assert second.name == "dp#2"
        assert third.name == "dp#3"
        assert len({s.path for s in root.walk()}) == 4

    def test_span_id_is_stable_content_hash(self):
        one = Span("root").child("phase:slicing")
        two = Span("root").child("phase:slicing")
        assert one.span_id == two.span_id
        assert len(one.span_id) == 16
        assert one.span_id != Span("root").child("phase:setup").span_id

    def test_counters_and_attrs(self):
        span = Span("s")
        span.count("stmts", 3)
        span.count("stmts")
        span.set("app", "diode")
        assert span.counters == {"stmts": 4}
        assert span.attrs == {"app": "diode"}

    def test_timing_context_manager(self):
        span = Span("s")
        with span:
            pass
        assert span.seconds >= 0.0
        child = span.child("c")
        child.seconds = 0.5
        # self time never goes negative even if children overlap oddly
        assert span.self_seconds >= 0.0

    def test_walk_is_depth_first_creation_order(self):
        root = Span("r")
        a = root.child("a")
        a.child("a1")
        root.child("b")
        assert [s.name for s in root.walk()] == ["r", "a", "a1", "b"]
        assert root.find("a1") is not None
        assert root.find("zzz") is None


class TestNullSpan:
    def test_falsy_and_inert(self):
        assert not NULL_SPAN
        assert NULL_SPAN.child("x") is NULL_SPAN
        NULL_SPAN.count("n")
        NULL_SPAN.set("k", 1)
        with NULL_SPAN as s:
            assert s is NULL_SPAN
        NULL_SPAN.seconds = 1.5
        assert NULL_SPAN.seconds == 0.0

    def test_untraced_analysis_constructs_no_span(self, monkeypatch):
        """The default parent is free: an untraced analysis of any corpus
        app builds no span at all, while a traced one builds its tree."""
        built = []
        init = Span.__init__

        def counting_init(self, name, *args, **kwargs):
            built.append(name)
            init(self, name, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting_init)
        spans_per_app = {}
        for key in app_keys():
            apk, config, _ = resolve_target(key)
            Extractocol(config).analyze(apk)
            spans_per_app[key] = len(built)
            built.clear()
        assert spans_per_app == dict.fromkeys(app_keys(), 0)

        apk, config, _ = resolve_target("diode")
        root = Span("repro")
        Extractocol(config, span=root).analyze(apk)
        assert len(built) == sum(1 for _ in root.walk()) > 1


class TestExport:
    def _sample(self) -> Span:
        root = Span("repro")
        app = root.child("analyze:app")
        with app.child("phase:slicing") as sp:
            sp.count("dps", 2)
            sp.set("engine", "serial")
        app.child("phase:signatures")
        return root

    def test_jsonl_roundtrip_validates(self):
        text = to_jsonl(self._sample())
        events = validate_jsonl(text)
        assert [e["name"] for e in events] == [
            "repro", "analyze:app", "phase:slicing", "phase:signatures"
        ]
        meta = json.loads(text.splitlines()[0])
        assert meta["schema"] == TRACE_SCHEMA_VERSION

    def test_jsonl_omits_seconds_by_default(self):
        root = self._sample()
        assert '"seconds"' not in to_jsonl(root)
        timed = to_jsonl(root, timings=True)
        assert '"seconds"' in timed
        validate_jsonl(timed)  # timings do not break the schema

    def test_jsonl_is_deterministic_for_same_tree(self):
        assert to_jsonl(self._sample()) == to_jsonl(self._sample())

    def test_events_parents_precede_children(self):
        events = span_events(self._sample())
        seen: set[str] = set()
        for e in events:
            assert e["parent"] is None or e["parent"] in seen
            seen.add(e["id"])

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_jsonl("")
        with pytest.raises(ValueError):
            validate_jsonl('{"type":"meta","schema":999,"root":"x"}\n')
        good = to_jsonl(self._sample()).splitlines()
        # child before parent
        with pytest.raises(ValueError):
            validate_jsonl("\n".join([good[0], good[2]]))
        # duplicate id
        with pytest.raises(ValueError):
            validate_jsonl("\n".join([good[0], good[1], good[1]]))
        # non-integer counters
        bad = json.loads(good[1])
        bad["counters"] = {"x": 1.5}
        with pytest.raises(ValueError):
            validate_jsonl("\n".join([good[0], json.dumps(bad)]))

    def test_collapsed_stacks_shape(self):
        text = collapsed_stacks(self._sample())
        lines = text.strip().splitlines()
        assert lines[0].startswith("repro ")
        assert any(
            line.startswith("repro;analyze:app;phase:slicing ")
            for line in lines
        )
        for line in lines:
            frames, value = line.rsplit(" ", 1)
            assert int(value) >= 0
