"""Unit tests for the dependency-analysis layer: transactions, inter-
transaction inference and the networkx dependency graph."""

from __future__ import annotations

import networkx as nx
import pytest

from repro import AnalysisConfig, Extractocol
from repro.corpus import build_app
from repro.deps.interdep import (
    dependency_graph,
    infer_dependencies,
    render_graph,
)
from repro.deps.transactions import (
    Dependency,
    RequestSig,
    ResponseSig,
    Transaction,
)
from repro.ir.statements import StmtRef
from repro.signature.lang import Const, JsonObject, Unknown, concat


def make_txn(txn_id: int, uri, *, method="GET", body=None,
             headers=(), resp_body=None, consumers=frozenset()) -> Transaction:
    return Transaction(
        txn_id=txn_id,
        site=StmtRef(f"<t.App: void m{txn_id}()>", 0),
        root="<t.App: void root()>",
        request=RequestSig(method=method, uri=uri, body=body, headers=headers),
        response=ResponseSig(kind="json" if resp_body is not None else "unknown",
                             body=resp_body, consumers=consumers),
    )


class TestInferDependencies:
    def test_uri_dependency(self):
        t0 = make_txn(0, Const("https://a.test/login"),
                      resp_body=JsonObject(((Const("token"), Unknown("str")),),
                                           open_=True))
        t1 = make_txn(1, concat(Const("https://a.test/feed?auth="),
                                Unknown("str", origin="response:0:token")))
        edges = infer_dependencies([t0, t1])
        assert len(edges) == 1
        assert edges[0].src_txn == 0 and edges[0].dst_txn == 1
        assert edges[0].dst_field == "uri"
        assert edges[0].src_path == "$.token"

    def test_header_and_body_dependencies(self):
        t0 = make_txn(0, Const("https://a.test/login"))
        t1 = make_txn(
            1, Const("https://a.test/act"), method="POST",
            body=concat(Const("uh="), Unknown("str", origin="response:0:uh")),
            headers=(("Cookie", Unknown("str", origin="response:0:cookie")),),
        )
        edges = infer_dependencies([t0, t1])
        fields = {e.dst_field for e in edges}
        assert fields == {"body", "header:Cookie"}

    def test_self_and_unknown_sources_ignored(self):
        t0 = make_txn(
            0, concat(Const("https://a.test/x?p="),
                      Unknown("str", origin="response:0:self"),
                      Unknown("str", origin="response:99:ghost")),
        )
        assert infer_dependencies([t0]) == []

    def test_multi_acc_origin_produces_multiple_edges(self):
        t0 = make_txn(0, Const("https://a.test/a"))
        t1 = make_txn(1, Const("https://a.test/b"))
        t2 = make_txn(
            2, concat(Const("https://a.test/c?v="),
                      Unknown("str", origin="response:0,1:merged")),
        )
        edges = infer_dependencies([t0, t1, t2])
        assert {e.src_txn for e in edges} == {0, 1}


class TestDependencyGraph:
    def test_graph_structure_for_radioreddit(self):
        report = Extractocol(AnalysisConfig()).analyze(build_app("radioreddit"))
        g = dependency_graph(report.transactions)
        assert isinstance(g, nx.MultiDiGraph)
        assert g.number_of_nodes() == len(report.transactions)
        assert g.number_of_edges() == len(report.dependencies)
        # login is the hub: it feeds both save|unsave and vote
        login = next(t.txn_id for t in report.transactions
                     if "login" in t.request.uri_regex)
        assert g.out_degree(login) >= 2
        assert nx.is_directed_acyclic_graph(nx.DiGraph(g))

    def test_edge_labels(self):
        report = Extractocol(AnalysisConfig()).analyze(build_app("radioreddit"))
        g = dependency_graph(report.transactions)
        labels = {d.get("src_path") for _, _, d in g.edges(data=True)}
        assert any("modhash" in (l or "") for l in labels)

    def test_render_graph_text(self):
        report = Extractocol(AnalysisConfig()).analyze(build_app("radioreddit"))
        text = render_graph(report.transactions)
        assert "media_player" in text
        assert "<-" in text


class TestTransactionViews:
    def test_describe_mentions_everything(self):
        t = make_txn(
            3, concat(Const("https://a.test/q?x="), Unknown("str")),
            method="POST",
            body=JsonObject(((Const("k"), Unknown("str")),)),
            resp_body=JsonObject(((Const("v"), Unknown("int")),), open_=True),
            consumers=frozenset({"media_player"}),
        )
        t.depends_on = [Dependency(0, "$.tok", 3, "uri")]
        text = t.describe()
        assert "POST" in text
        assert "body[json]" in text
        assert "media_player" in text
        assert "txn0[$.tok] -> txn3.uri" in text

    def test_is_dynamic_classification(self):
        dynamic = make_txn(0, Unknown("str", origin="response:9:url"))
        static = make_txn(1, concat(Const("https://a.test/"),
                                    Unknown("str", origin="response:9:id")))
        assert dynamic.request.is_dynamic
        assert not static.request.is_dynamic

    def test_is_identified_rules(self):
        assert make_txn(0, Const("https://a.test/x")).is_identified
        assert not make_txn(1, Unknown("any")).is_identified
        # wholly response-derived URIs count: the dependency is the info
        assert make_txn(2, Unknown("str", origin="response:0:u")).is_identified
