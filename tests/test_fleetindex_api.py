"""Fleet search over the service surfaces: HTTP ``/search`` + ``/catalog``
+ paginated ``/reports``, the MCP-style stdio catalog server, and the
``repro index`` / ``repro search`` CLI verbs."""

from __future__ import annotations

import io
import json
import os
import urllib.error
import urllib.request

import pytest

from repro.apk.loader import apk_digest
from repro.cli import main as cli_main
from repro.fleetindex.index import build_index
from repro.fleetindex.mcp import McpCatalogServer, serve
from repro.service.api import AnalysisService
from repro.service.jobs import _default_analyzer, resolve_target
from repro.service.store import ResultStore
from repro.synth import expand_targets
from repro.synth.compile import synth_genapp

SPEC = "synth:transports*3@5"


def fill_store(root) -> ResultStore:
    store = ResultStore(root)
    for target in expand_targets([SPEC]):
        apk, config, _ = resolve_target(target)
        store.put(
            apk_digest(apk), config.cache_key(),
            _default_analyzer(apk, config),
        )
    return store


def known_host() -> str:
    return synth_genapp(expand_targets([SPEC])[0]).host


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-api") / "store"
    fill_store(root)
    svc = AnalysisService(root, port=0, workers=1).start()
    yield svc
    svc.stop()


def get(svc, path):
    try:
        with urllib.request.urlopen(svc.url + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHttpSearch:
    def test_search_finds_known_host(self, service):
        status, data = get(service, f"/search?q=host:{known_host()}")
        assert status == 200
        assert data["total"] >= 1 and data["apps"]
        assert all(h["label"] for h in data["hits"])

    def test_search_requires_query(self, service):
        status, data = get(service, "/search")
        assert status == 400 and "q" in data["error"]

    def test_search_bad_query_is_400(self, service):
        status, data = get(service, "/search?q=like:broken")
        assert status == 400

    def test_search_metrics_observed(self, service):
        get(service, f"/search?q=host:{known_host()}")
        _, metrics = get(service, "/metrics")
        assert metrics["counters"]["search_queries"] >= 1
        assert metrics["histograms"]["search_latency"]["count"] >= 1

    def test_catalog_pagination(self, service):
        status, page1 = get(service, "/catalog?limit=2")
        assert status == 200
        assert page1["total"] == 3 and len(page1["apps"]) == 2
        _, page2 = get(service, f"/catalog?limit=2&cursor={page1['next_cursor']}")
        names = [e["app"] for e in page1["apps"] + page2["apps"]]
        assert names == sorted(names) and len(set(names)) == 3

    def test_reports_paginated_with_summaries(self, service):
        _, page1 = get(service, "/reports?limit=2")
        assert page1["total"] == 3 and len(page1["reports"]) == 2
        assert all(e["summary"]["hosts"] for e in page1["reports"])
        _, page2 = get(service, f"/reports?limit=2&cursor={page1['next_cursor']}")
        assert len(page2["reports"]) == 1 and page2["next_cursor"] is None
        keys = {e["key"] for e in page1["reports"] + page2["reports"]}
        assert keys == set(service.store.entries())

    def test_search_deterministic_ordering(self, service):
        a = get(service, "/search?q=post")[1]
        b = get(service, "/search?q=post")[1]
        assert a == b


class TestMcpServer:
    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        store = fill_store(tmp_path_factory.mktemp("mcp") / "store")
        build_index(store)
        return McpCatalogServer(store)

    def rpc(self, server, method, params=None, id=1):
        return server.handle({
            "jsonrpc": "2.0", "id": id, "method": method,
            **({"params": params} if params else {}),
        })

    def tool(self, server, name, arguments):
        resp = self.rpc(server, "tools/call",
                        {"name": name, "arguments": arguments})
        result = resp["result"]
        return result["isError"], json.loads(result["content"][0]["text"]) \
            if not result["isError"] else result["content"][0]["text"]

    def test_initialize_and_tools_list(self, server):
        resp = self.rpc(server, "initialize")
        assert resp["result"]["serverInfo"]["name"] == "repro-fleet-catalog"
        tools = self.rpc(server, "tools/list")["result"]["tools"]
        assert [t["name"] for t in tools] == [
            "list_collections", "search", "get_file",
        ]
        assert all("inputSchema" in t for t in tools)

    def test_list_collections(self, server):
        is_error, payload = self.tool(server, "list_collections", {})
        assert not is_error and payload["total"] == 3
        assert all(e["hosts"] for e in payload["apps"])

    def test_search_tool(self, server):
        is_error, payload = self.tool(
            server, "search", {"query": f"host:{known_host()}"}
        )
        assert not is_error and payload["total"] >= 1

    def test_get_file_by_app_and_key(self, server):
        _, collections = self.tool(server, "list_collections", {})
        app = collections["apps"][0]["app"]
        key = collections["apps"][0]["keys"][0]
        for arguments in ({"app": app}, {"key": key}):
            is_error, envelope = self.tool(server, "get_file", arguments)
            assert not is_error and envelope["key"] == key

    def test_get_file_by_app_returns_most_recent_result(self, tmp_path):
        """The app's most recent result is the one ``list_entries`` lists
        last, not its lexicographically last key: v1 stored after v3."""
        from repro.apk.loader import apk_digest
        from repro.core.extractocol import Extractocol
        from repro.corpus import build_version

        store = ResultStore(tmp_path / "store")
        keys = {}
        for stamp, label in enumerate(("reddinator@v3", "reddinator@v1")):
            built = build_version(label)
            keys[label] = store.put(
                apk_digest(built.apk), built.config.cache_key(),
                Extractocol(built.config).analyze(built.apk),
            )
            os.utime(store.path_for(keys[label]), (1_000 + stamp,) * 2)
        build_index(store)
        assert store.list_entries()[-1]["key"] == keys["reddinator@v1"]
        is_error, envelope = self.tool(
            McpCatalogServer(store), "get_file", {"app": "Reddinator"}
        )
        assert not is_error and envelope["key"] == keys["reddinator@v1"]

    def test_errors_and_notifications(self, server):
        is_error, message = self.tool(server, "get_file", {"key": "nope"})
        assert is_error and "nope" in message
        resp = self.rpc(server, "no/such/method")
        assert resp["error"]["code"] == -32601
        assert server.handle({"jsonrpc": "2.0",
                              "method": "notifications/initialized"}) is None

    def test_get_file_refuses_what_lookup_rejects(self, tmp_path):
        """A ``diff-*`` file an older store holds, or a torn file, is no
        stored report: ``get_file`` answers with an in-band tool error."""
        store = ResultStore(tmp_path / "store")
        for name, text in (("diff-" + "ab" * 20, '{"diff": {}}'),
                           ("cd" * 32, "{ torn")):
            path = store.path_for(name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            is_error, message = self.tool(
                McpCatalogServer(store), "get_file", {"key": name}
            )
            assert is_error and name in message

    def test_stdio_loop_survives_malformed_requests(self, server):
        """A non-object message is an invalid request (``id: null``),
        non-object params or arguments are invalid params, and the loop
        keeps answering."""
        call = {"jsonrpc": "2.0", "method": "tools/call"}
        lines = "\n".join([
            "[1, 2]",
            '"ping"',
            json.dumps({**call, "id": 1, "params": [1]}),
            json.dumps({**call, "id": 2,
                        "params": {"name": "search", "arguments": "q"}}),
            json.dumps({"jsonrpc": "2.0", "id": 3, "method": "ping"}),
        ]) + "\n"
        out = io.StringIO()
        serve(server.store, stdin=io.StringIO(lines), stdout=out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [(r["id"], r.get("error", {}).get("code"))
                for r in responses] == [
            (None, -32600), (None, -32600), (1, -32602), (2, -32602),
            (3, None),
        ]
        assert responses[-1] == {"jsonrpc": "2.0", "id": 3, "result": {}}

    def test_stdio_loop(self, server):
        lines = "\n".join([
            json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize"}),
            "not json",
            json.dumps({"jsonrpc": "2.0", "id": 2, "method": "ping"}),
        ]) + "\n"
        out = io.StringIO()
        serve(server.store, stdin=io.StringIO(lines), stdout=out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert responses[0]["id"] == 1 and "result" in responses[0]
        assert responses[1]["error"]["code"] == -32700
        assert responses[2] == {"jsonrpc": "2.0", "id": 2, "result": {}}


class TestCliVerbs:
    @pytest.fixture(scope="class")
    def store_root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli") / "store"
        fill_store(root)
        return str(root)

    def test_index_then_search(self, store_root, capsys):
        assert cli_main(["index", "--store", store_root, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["docs"] == 3 and stats["rebuilt"]

        code = cli_main([
            "search", f"host:{known_host()}", "--store", store_root, "--json",
        ])
        result = json.loads(capsys.readouterr().out)
        assert code == 0 and result["total"] >= 1

    def test_search_no_hits_exits_nonzero(self, store_root, capsys):
        code = cli_main([
            "search", "host:no.such.host", "--store", store_root,
        ])
        capsys.readouterr()
        assert code == 1

    def test_search_pagination_cursor(self, store_root, capsys):
        cli_main(["search", "post", "--store", store_root, "--limit", "1",
                  "--json"])
        first = json.loads(capsys.readouterr().out)
        if first["next_cursor"]:
            cli_main(["search", "post", "--store", store_root, "--limit", "1",
                      "--cursor", first["next_cursor"], "--json"])
            second = json.loads(capsys.readouterr().out)
            assert second["hits"] != first["hits"]

    def test_bad_query_exits_with_message(self, store_root, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["search", "like:oops", "--store", store_root])
        assert exc.value.code == 2
        assert "bad query" in capsys.readouterr().err
