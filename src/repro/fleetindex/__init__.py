"""Fleet-wide protocol intelligence: a cross-app inverted index over the
ResultStore, query grammar + similarity search, and an MCP-style catalog
server.  See ``docs`` (term extraction), ``index`` (segment tree +
pending markers, whose documents readers derive from the envelopes),
``query`` (grammar/pagination) and ``mcp`` (stdio JSON-RPC)."""
