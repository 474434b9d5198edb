"""The intermediate signature language (paper Figure 4).

Signatures are trees over:

* ``Const``   — a string literal the program writes verbatim,
* ``Unknown`` — a value not statically determined, with a type hint that
  drives the regex class (``[0-9]+`` for integers, ``.*`` for strings) and
  a *provenance* tag (user input, resource, database, a prior response
  field, ...) powering inter-transaction dependency analysis,
* ``Concat``  — ordered concatenation,
* ``Alt``     — disjunction (∨) introduced at control-flow confluences,
* ``Rep``     — repetition introduced at loop headers/latches,
* ``JsonObject`` / ``JsonArray`` — structured JSON bodies,
* ``XmlElement`` — structured XML bodies.

Smart constructors (:func:`concat`, :func:`alt`, :func:`rep`) normalise as
they build: literal runs merge, nested concats flatten, duplicate branches
collapse — keeping signatures canonical so equality tests and regex
compilation stay simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

#: Unknown kind → semantic value class
KINDS = ("str", "int", "float", "bool", "any", "url")


class Term:
    """Base class of signature terms.  Terms are immutable and hashable."""

    __slots__ = ()

    def walk(self) -> Iterator["Term"]:
        yield self


@dataclass(frozen=True, slots=True)
class Const(Term):
    text: str

    def __str__(self) -> str:
        return f"({self.text})"


@dataclass(frozen=True, slots=True)
class Unknown(Term):
    kind: str = "str"
    #: where the value comes from: "user_input", "resource", "database",
    #: "location", "device", "response:<txn>:<path>", ... or None
    origin: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"bad Unknown kind {self.kind!r}")

    def __str__(self) -> str:
        return f"<?{self.kind}{':' + self.origin if self.origin else ''}>"


@dataclass(frozen=True, slots=True)
class Concat(Term):
    parts: tuple[Term, ...]

    def walk(self) -> Iterator[Term]:
        yield self
        for p in self.parts:
            yield from p.walk()

    def __str__(self) -> str:
        return "".join(str(p) for p in self.parts)


@dataclass(frozen=True, slots=True)
class Alt(Term):
    options: tuple[Term, ...]

    def walk(self) -> Iterator[Term]:
        yield self
        for o in self.options:
            yield from o.walk()

    def __str__(self) -> str:
        return "(" + " | ".join(str(o) for o in self.options) + ")"


@dataclass(frozen=True, slots=True)
class Rep(Term):
    body: Term

    def walk(self) -> Iterator[Term]:
        yield self
        yield from self.body.walk()

    def __str__(self) -> str:
        return f"{{{self.body}}}*"


@dataclass(frozen=True, slots=True)
class JsonObject(Term):
    """A JSON object; entries are (key term, value term) pairs in program
    order.  ``open_`` marks objects that may carry additional, unobserved
    keys (always true for response access trees)."""

    entries: tuple[tuple[Term, Term], ...] = ()
    open_: bool = False

    def walk(self) -> Iterator[Term]:
        yield self
        for k, v in self.entries:
            yield from k.walk()
            yield from v.walk()

    def get(self, key: str) -> Term | None:
        for k, v in self.entries:
            if isinstance(k, Const) and k.text == key:
                return v
        return None

    def with_entry(self, key: Term, value: Term) -> "JsonObject":
        out = []
        replaced = False
        for k, v in self.entries:
            if k == key:
                out.append((k, value))
                replaced = True
            else:
                out.append((k, v))
        if not replaced:
            out.append((key, value))
        return JsonObject(tuple(out), self.open_)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.entries)
        suffix = ", ..." if self.open_ else ""
        return "{" + inner + suffix + "}"


@dataclass(frozen=True, slots=True)
class JsonArray(Term):
    """A JSON array: ``fixed`` prefix elements plus an optional repeated
    element pattern (arrays built in loops, or accessed by index)."""

    fixed: tuple[Term, ...] = ()
    elem: Term | None = None

    def walk(self) -> Iterator[Term]:
        yield self
        for f in self.fixed:
            yield from f.walk()
        if self.elem is not None:
            yield from self.elem.walk()

    def __str__(self) -> str:
        parts = [str(f) for f in self.fixed]
        if self.elem is not None:
            parts.append(f"{self.elem}*")
        return "[" + ", ".join(parts) + "]"


@dataclass(frozen=True, slots=True)
class XmlElement(Term):
    tag: str
    attrs: tuple[tuple[str, Term], ...] = ()
    children: tuple[Term, ...] = ()
    text: Term | None = None

    def walk(self) -> Iterator[Term]:
        yield self
        for _, v in self.attrs:
            yield from v.walk()
        for c in self.children:
            yield from c.walk()
        if self.text is not None:
            yield from self.text.walk()

    def __str__(self) -> str:
        attrs = "".join(f" {k}={v}" for k, v in self.attrs)
        inner = "".join(str(c) for c in self.children)
        if self.text is not None:
            inner += str(self.text)
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"


UNKNOWN_STR = Unknown("str")
UNKNOWN_INT = Unknown("int")
UNKNOWN_ANY = Unknown("any")
EMPTY = Const("")

_MAX_ALT_OPTIONS = 24


def concat(*parts: Term) -> Term:
    """Concatenate, flattening nested concats and merging literal runs."""
    flat: list[Term] = []
    for part in parts:
        if isinstance(part, Concat):
            flat.extend(part.parts)
        else:
            flat.append(part)
    out: list[Term] = []
    for part in flat:
        if isinstance(part, Const) and not part.text:
            continue
        if out and isinstance(out[-1], Const) and isinstance(part, Const):
            out[-1] = Const(out[-1].text + part.text)
        else:
            out.append(part)
    if not out:
        return EMPTY
    if len(out) == 1:
        return out[0]
    return Concat(tuple(out))


def alt(*options: Term) -> Term:
    """Disjunction, flattening nested alts and deduplicating branches.

    When the option count explodes (heavily branchy code), the disjunction
    degrades to a single ``Unknown`` — the conservative expression the
    paper's language permits."""
    flat: list[Term] = []
    for option in options:
        if isinstance(option, Alt):
            flat.extend(option.options)
        else:
            flat.append(option)
    seen: list[Term] = []
    for option in flat:
        if option not in seen:
            seen.append(option)
    if not seen:
        return EMPTY
    if len(seen) == 1:
        return seen[0]
    if len(seen) > _MAX_ALT_OPTIONS:
        return UNKNOWN_STR
    return Alt(tuple(seen))


def rep(body: Term) -> Term:
    if isinstance(body, Rep):
        return body
    if isinstance(body, Const) and not body.text:
        return EMPTY
    return Rep(body)


def constant_keywords(term: Term) -> list[str]:
    """All constant keyword strings in a signature: JSON/XML keys, tags and
    attributes plus query-string keys — the unit Figure 7 counts."""
    out: list[str] = []

    def visit(t: Term) -> None:
        if isinstance(t, JsonObject):
            for k, v in t.entries:
                if isinstance(k, Const) and k.text:
                    out.append(k.text)
                visit(v)
        elif isinstance(t, JsonArray):
            for f in t.fixed:
                visit(f)
            if t.elem is not None:
                visit(t.elem)
        elif isinstance(t, XmlElement):
            out.append(t.tag)
            for name, v in t.attrs:
                out.append(name)
                visit(v)
            for c in t.children:
                visit(c)
            if t.text is not None:
                visit(t.text)
        elif isinstance(t, Concat):
            for p in t.parts:
                visit(p)
        elif isinstance(t, Alt):
            for o in t.options:
                visit(o)
        elif isinstance(t, Rep):
            visit(t.body)
        elif isinstance(t, Const):
            # query-string style: extract keys from k=v& fragments
            import re as _re

            for match in _re.finditer(r"([A-Za-z_][\w.\-]*)=", t.text):
                out.append(match.group(1))

    visit(term)
    return out


def origins_of(term: Term) -> set[str]:
    """Provenance tags of every Unknown inside ``term``."""
    return {
        t.origin
        for t in term.walk()
        if isinstance(t, Unknown) and t.origin is not None
    }


__all__ = [
    "Alt",
    "Concat",
    "Const",
    "EMPTY",
    "JsonArray",
    "JsonObject",
    "KINDS",
    "Rep",
    "Term",
    "UNKNOWN_ANY",
    "UNKNOWN_INT",
    "UNKNOWN_STR",
    "Unknown",
    "XmlElement",
    "alt",
    "concat",
    "constant_keywords",
    "origins_of",
    "rep",
]
