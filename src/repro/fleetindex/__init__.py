"""Fleet-wide protocol intelligence: a cross-app inverted index over the
ResultStore, query grammar + similarity search, and an MCP-style catalog
server.  See ``docs`` (term extraction), ``index`` (segment tree +
pending markers, whose documents readers derive from the envelopes),
``query`` (grammar/pagination) and ``mcp`` (stdio JSON-RPC)."""

from .docs import (
    SUMMARY_SCHEMA,
    envelope_summary,
    extract_doc,
    report_summary,
    signature_label,
)
from .index import (
    INDEX_SCHEMA,
    FleetIndex,
    build_index,
    index_root,
)
from .query import (
    QueryError,
    catalog,
    decode_cursor,
    encode_cursor,
    paginate,
    parse_query,
    run_search,
)

__all__ = [
    "FleetIndex",
    "INDEX_SCHEMA",
    "QueryError",
    "SUMMARY_SCHEMA",
    "build_index",
    "catalog",
    "decode_cursor",
    "encode_cursor",
    "envelope_summary",
    "extract_doc",
    "index_root",
    "paginate",
    "parse_query",
    "report_summary",
    "run_search",
    "signature_label",
]
