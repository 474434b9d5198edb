"""Regenerate Table 1: signatures identified per app, per discovery method.

Open-source cells: Extractocol / manual fuzzing / source-code analysis
(the corpus ground truth).  Closed-source cells: Extractocol / manual
fuzzing / automatic fuzzing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus import app_keys
from .paperdata import PaperRow, row_for
from .runner import evaluate_app
from .traces import count_trace


@dataclass
class Cell:
    extractocol: int
    manual: int
    third: int  # source-code truth (open) or auto fuzzing (closed)

    def as_text(self) -> str:
        return f"{self.extractocol} / {self.manual} / {self.third}"


@dataclass
class Table1Row:
    key: str
    app: str
    kind: str
    protocol: str
    get: Cell
    post: Cell
    put: Cell
    delete: Cell
    query: Cell
    json: Cell
    xml: Cell
    pairs: int

    def paper(self) -> PaperRow:
        return row_for(self.key)


def row_for_app(key: str) -> Table1Row:
    ev = evaluate_app(key)
    spec = ev.spec
    stats = ev.report.stats()
    manual = count_trace(ev.manual.trace)
    auto = count_trace(ev.auto.trace)

    def method_cell(method: str, static_count: int) -> Cell:
        manual_n = manual.by_method.get(method, 0)
        if spec.kind == "open":
            third = spec.truth.count(method)
        else:
            third = auto.by_method.get(method, 0)
        return Cell(static_count, manual_n, third)

    def body_cell(static_count: int, manual_n: int, auto_n: int,
                  truth_kind: str) -> Cell:
        if spec.kind == "open":
            third = sum(
                1
                for ep in spec.truth.endpoints
                if ep.request_body == truth_kind or (
                    truth_kind == "json" and (ep.request_body == "json"
                                              or ep.response_body == "json")
                ) or (truth_kind == "xml" and ep.response_body == "xml")
            )
            if truth_kind == "query":
                third = sum(
                    1 for ep in spec.truth.endpoints if ep.request_body == "query"
                )
        else:
            third = auto_n
        return Cell(static_count, manual_n, third)

    return Table1Row(
        key=key,
        app=spec.name,
        kind=spec.kind,
        protocol=spec.protocol,
        get=method_cell("GET", stats.get),
        post=method_cell("POST", stats.post),
        put=method_cell("PUT", stats.put),
        delete=method_cell("DELETE", stats.delete),
        query=body_cell(stats.query_string, manual.query, auto.query, "query"),
        json=body_cell(stats.json_body, manual.json, auto.json, "json"),
        xml=body_cell(stats.xml_body, manual.xml, auto.xml, "xml"),
        pairs=stats.pairs,
    )


def generate_table1(kind: str | None = None) -> list[Table1Row]:
    return [row_for_app(key) for key in app_keys(kind)]


def render_table1(rows: list[Table1Row] | None = None) -> str:
    rows = rows if rows is not None else generate_table1()
    header = (
        f"{'App':24s} {'Proto':8s} {'GET':>12s} {'POST':>12s} {'PUT':>10s} "
        f"{'DELETE':>10s} {'Query':>12s} {'JSON':>12s} {'XML':>10s} {'#Pair':>6s}"
    )
    lines = [header, "-" * len(header)]
    for row in sorted(rows, key=lambda r: (r.kind, r.app.lower())):
        lines.append(
            f"{row.app[:24]:24s} {row.protocol:8s} {row.get.as_text():>12s} "
            f"{row.post.as_text():>12s} {row.put.as_text():>10s} "
            f"{row.delete.as_text():>10s} {row.query.as_text():>12s} "
            f"{row.json.as_text():>12s} {row.xml.as_text():>10s} "
            f"{row.pairs:>6d}"
        )
    return "\n".join(lines)


def total_pairs(rows: list[Table1Row] | None = None) -> int:
    rows = rows if rows is not None else generate_table1()
    return sum(r.pairs for r in rows)


__all__ = ["Cell", "Table1Row", "generate_table1", "render_table1",
           "row_for_app", "total_pairs"]
