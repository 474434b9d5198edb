"""MCP-style catalog server: the fleet index over stdio JSON-RPC.

``repro mcp`` speaks newline-delimited JSON-RPC 2.0 on stdin/stdout with
the Model Context Protocol tool shape, so agent runtimes can browse the
fleet without linking against this package:

* ``list_collections`` — the app catalog (one collection per analysed
  app: result keys, hosts, endpoint/dependency counts), paginated.
* ``search`` — the full ``repro search`` grammar (``host:``, ``path:``,
  ``field:``, ``app:``, ``like:<app>/<txn>``, free text) with
  ``limit``/``cursor`` pagination.
* ``get_file`` — one stored report envelope, by result key or app name
  (the app's most recent result: the one ``ResultStore.list_entries``
  lists last, by envelope mtime with ties broken by key), read through
  ``ResultStore.lookup``: a key whose file it rejects is an in-band tool
  error.

The server is deliberately dumb transport: :class:`McpCatalogServer.handle`
is a pure request-dict → response-dict function (tested without pipes),
and :func:`serve` is the only loop.  The index is refreshed before every
tool call, so results include envelopes written after startup (a
reload derives only the newly stored reports' documents).
"""

from __future__ import annotations

import json
import sys

from .index import FleetIndex
from .query import QueryError, catalog, run_search

PROTOCOL_VERSION = "2025-03-26"
SERVER_INFO = {"name": "repro-fleet-catalog", "version": "1.0"}

_PAGING_PROPS = {
    "limit": {"type": "integer", "description": "Page size (default 50)."},
    "cursor": {
        "type": "string",
        "description": "Opaque cursor from a previous page's next_cursor.",
    },
}

TOOLS = [
    {
        "name": "list_collections",
        "description": (
            "List analysed apps in the fleet store: result keys, hosts, "
            "endpoint and dependency counts per app."
        ),
        "inputSchema": {
            "type": "object",
            "properties": dict(_PAGING_PROPS),
        },
    },
    {
        "name": "search",
        "description": (
            "Search the fleet's protocol behavior. Query grammar: "
            "host:<host>, path:<segment|/full/path>, field:<dep-field>, "
            "app:<app>, like:<app>/<txn-id>, free text; clauses AND."
        ),
        "inputSchema": {
            "type": "object",
            "properties": {
                "query": {"type": "string", "description": "Query string."},
                **_PAGING_PROPS,
            },
            "required": ["query"],
        },
    },
    {
        "name": "get_file",
        "description": (
            "Fetch one stored report envelope by result key, or an app "
            "name (its most recent result)."
        ),
        "inputSchema": {
            "type": "object",
            "properties": {
                "key": {"type": "string", "description": "Result key."},
                "app": {"type": "string", "description": "App name."},
            },
        },
    },
]


class McpCatalogServer:
    """Pure request handling for the catalog server.

    ``handle`` maps one JSON-RPC request dict to a response dict, or
    ``None`` for notifications (which get no reply).  Transport errors
    (unparseable lines) are the caller's problem — see :func:`serve`.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.index = FleetIndex(store)

    # ----------------------------------------------------------- tool calls
    def _tool_result(self, payload: dict) -> dict:
        return {
            "content": [
                {"type": "text", "text": json.dumps(payload, sort_keys=True)}
            ],
            "isError": False,
        }

    def _tool_error(self, message: str) -> dict:
        return {
            "content": [{"type": "text", "text": message}],
            "isError": True,
        }

    def _latest_key(self, app: str) -> str | None:
        """The result of ``app`` that :meth:`ResultStore.list_entries`
        lists last: the newest envelope mtime (its ``stored_at``), ties
        broken by key.  Stats only that app's envelopes."""
        stamped = []
        for key, doc in self.index.docs.items():
            if doc.get("app") == app:
                try:
                    mtime = self.store.path_for(key).stat().st_mtime
                except OSError:
                    continue  # removed since the index was read
                stamped.append((mtime, key))
        return max(stamped)[1] if stamped else None

    def _call(self, name: str, arguments: dict) -> dict:
        self.index.refresh()
        if name == "list_collections":
            return self._tool_result(
                catalog(
                    self.index,
                    limit=arguments.get("limit"),
                    cursor=arguments.get("cursor"),
                )
            )
        if name == "search":
            query = arguments.get("query", "")
            try:
                return self._tool_result(
                    run_search(
                        self.index,
                        query,
                        limit=arguments.get("limit"),
                        cursor=arguments.get("cursor"),
                    )
                )
            except QueryError as exc:
                return self._tool_error(f"bad query: {exc}")
        if name == "get_file":
            key = arguments.get("key")
            if not key and arguments.get("app"):
                key = self._latest_key(arguments["app"])
            envelope = self.store.lookup(key) if key else None
            if envelope is None:
                return self._tool_error(
                    f"no stored result for {arguments.get('key') or arguments.get('app')!r}"
                )
            return self._tool_result(envelope)
        return self._tool_error(f"unknown tool {name!r}")

    # -------------------------------------------------------------- JSON-RPC
    def handle(self, request) -> dict | None:
        """One parsed JSON-RPC message → response dict (``None`` =
        notification).  A message that is not an object (batches are not
        supported) is an invalid request; ``tools/call`` params or
        arguments that are not objects are invalid params."""
        if not isinstance(request, dict):
            return {
                "jsonrpc": "2.0",
                "id": None,
                "error": {
                    "code": -32600,
                    "message": "invalid request: not a JSON object",
                },
            }
        method = request.get("method", "")
        req_id = request.get("id")
        if req_id is None:
            return None  # notification (e.g. notifications/initialized)

        def ok(result: dict) -> dict:
            return {"jsonrpc": "2.0", "id": req_id, "result": result}

        def err(code: int, message: str) -> dict:
            return {
                "jsonrpc": "2.0",
                "id": req_id,
                "error": {"code": code, "message": message},
            }

        if method == "initialize":
            return ok({
                "protocolVersion": PROTOCOL_VERSION,
                "serverInfo": SERVER_INFO,
                "capabilities": {"tools": {}},
            })
        if method == "ping":
            return ok({})
        if method == "tools/list":
            return ok({"tools": TOOLS})
        if method == "tools/call":
            params = request.get("params", {})
            arguments = (
                params.get("arguments", {}) if isinstance(params, dict)
                else None
            )
            if not isinstance(arguments, dict):
                return err(
                    -32602, "invalid params: params and arguments must be "
                    "objects"
                )
            try:
                return ok(self._call(params.get("name", ""), arguments))
            except Exception as exc:  # tool bugs become protocol errors
                return err(-32603, f"{type(exc).__name__}: {exc}")
        return err(-32601, f"method not found: {method}")


def serve(store, stdin=None, stdout=None) -> int:
    """The stdio loop: one JSON-RPC message per line until EOF."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    server = McpCatalogServer(store)
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError:
            response = {
                "jsonrpc": "2.0",
                "id": None,
                "error": {"code": -32700, "message": "parse error"},
            }
        else:
            response = server.handle(request)
        if response is not None:
            stdout.write(json.dumps(response, sort_keys=True) + "\n")
            stdout.flush()
    return 0


__all__ = ["McpCatalogServer", "PROTOCOL_VERSION", "TOOLS", "serve"]
