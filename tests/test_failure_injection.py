"""Failure injection: the dynamic substrate degrades gracefully when
servers misbehave, apps crash, or inputs are malformed."""

from __future__ import annotations

import pytest

from fixtures_http import CLS, build_mini_reddit

from repro import AnalysisConfig, Extractocol
from repro.runtime.fuzzing import ManualUiFuzzer
from repro.runtime.httpstack import HttpRequest, HttpResponse, Network
from repro.runtime.interpreter import Runtime, RuntimeError_
from repro.runtime.server import ScriptedServer


def network_with(handler) -> Network:
    network = Network()
    server = ScriptedServer("www.reddit.com")
    server.add("GET", r".*", handler)
    network.register("www.reddit.com", server)
    return network


class TestServerFailures:
    def test_http_500_recorded_and_app_fault_contained(self):
        apk = build_mini_reddit()
        network = network_with(
            lambda req, state: HttpResponse(status=500, body="oops")
        )
        result = ManualUiFuzzer().fuzz(apk, network)
        # the app crashed parsing "oops" as JSON — contained as a fault,
        # and the traffic was still captured
        assert result.faults
        assert len(result.trace) >= 1
        assert result.trace.transactions[0].response.status == 500

    def test_malformed_json_body(self):
        apk = build_mini_reddit()
        network = network_with(
            lambda req, state: HttpResponse.json_response({"wrong": "shape"})
        )
        result = ManualUiFuzzer().fuzz(apk, network)
        assert any("after" in f or "KeyError" in f or "library fault" in f
                   for f in result.faults)

    def test_unroutable_host_does_not_crash_fuzzer(self):
        apk = build_mini_reddit()
        result = ManualUiFuzzer().fuzz(apk, Network())  # no servers at all
        assert len(result.trace) >= 1
        assert all(t.response.status == 502 for t in result.trace)

    def test_handler_exception_becomes_500(self):
        def exploding(req, state):
            raise ValueError("server bug")

        network = network_with(exploding)
        with pytest.raises(ValueError):
            network.send(HttpRequest("GET", "http://www.reddit.com/x"))


class TestRuntimeGuards:
    def test_step_budget_stops_infinite_loop(self):
        from repro.apk.manifest import Manifest
        from repro.apk.model import Apk, EntryPoint, TriggerKind
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder()
        m = pb.class_("t.Spin").method("spin")
        m.label("LOOP")
        m.goto("LOOP")
        apk = Apk(manifest=Manifest(package="t"), program=pb.build(),
                  entrypoints=[EntryPoint("<t.Spin: void spin()>",
                                          TriggerKind.UI, "spin")])
        rt = Runtime(apk, Network())
        with pytest.raises(RuntimeError_, match="step budget"):
            rt.fire_entrypoint(apk.entrypoints[0])

    def test_recursion_depth_guard(self):
        from repro.apk.manifest import Manifest
        from repro.apk.model import Apk, EntryPoint, TriggerKind
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder()
        cb = pb.class_("t.Rec")
        m = cb.method("recurse")
        m.call_this("recurse", [])
        m.ret_void()
        apk = Apk(manifest=Manifest(package="t"), program=pb.build(),
                  entrypoints=[EntryPoint("<t.Rec: void recurse()>",
                                          TriggerKind.UI, "rec")])
        rt = Runtime(apk, Network())
        with pytest.raises(RuntimeError_, match="depth"):
            rt.fire_entrypoint(apk.entrypoints[0])

    def test_null_field_read_is_reported(self):
        from repro.apk.manifest import Manifest
        from repro.apk.model import Apk, EntryPoint, TriggerKind
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder()
        cb = pb.class_("t.Npe")
        cb.field("obj", "t.Npe")
        m = cb.method("boom")
        other = m.getfield(m.this, "obj", cls="t.Npe")
        m.getfield(other, "obj", cls="t.Npe")
        m.ret_void()
        apk = Apk(manifest=Manifest(package="t"), program=pb.build(),
                  entrypoints=[EntryPoint("<t.Npe: void boom()>",
                                          TriggerKind.UI, "boom")])
        rt = Runtime(apk, Network())
        with pytest.raises(RuntimeError_, match="null field read"):
            rt.fire_entrypoint(apk.entrypoints[0])


class TestStaticAnalysisRobustness:
    def test_analysis_is_independent_of_server_behavior(self):
        """Static analysis never touches the network: identical output
        whether or not any server exists."""
        report = Extractocol(AnalysisConfig()).analyze(build_mini_reddit())
        assert len(report.transactions) == 2

    def test_missing_entrypoint_method_skipped(self):
        from repro.apk.model import EntryPoint, TriggerKind

        apk = build_mini_reddit()
        apk.entrypoints.append(
            EntryPoint("<ghost.Cls: void nothere()>", TriggerKind.UI, "ghost")
        )
        report = Extractocol(AnalysisConfig()).analyze(apk)
        assert len(report.transactions) == 2

    def test_empty_program(self):
        from repro.apk.manifest import Manifest
        from repro.apk.model import Apk
        from repro.ir.program import Program

        report = Extractocol(AnalysisConfig()).analyze(
            Apk(manifest=Manifest(package="empty"), program=Program())
        )
        assert report.transactions == []
        assert report.demarcation_points == 0

    def test_worklist_budget_caps_pathological_slicing(self):
        from repro.taint.engine import TaintConfig, TaintEngine
        from repro.cfg.callgraph import build_callgraph

        apk = build_mini_reddit()
        cg = build_callgraph(apk.program)
        engine = TaintEngine(apk.program, cg,
                             TaintConfig(max_worklist_items=3))
        from repro.slicing.demarcation import scan_demarcation_points

        dp = scan_demarcation_points(apk.program, cg)[0]
        sl = engine.backward_slice(dp.request_seeds)  # truncated, not hung
        assert len(sl) < apk.program.statement_count()
