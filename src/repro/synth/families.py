"""Scenario families: named dimension grids over app-generation axes.

A *family* is a declarative slice of the full generation space: an ordered
list of axes (trigger kinds, transports, body formats, hazards, lineage
mutations, ...) whose cartesian product is the family's *grid*.  The grid
compiler (:mod:`repro.synth.compile`) maps a ``(family, seed, index)``
triple onto one grid point plus seeded per-app entropy, so a family of 54
grid cells can back a population of 54 or 5400 apps — coverage first,
then variation.

Axes reuse the exact vocabulary :class:`~repro.corpus.generator
.GenEndpoint` already understands (the same code shapes the 34-app corpus
is built from), which is what makes every synthesized app carry full
:class:`~repro.corpus.base.GroundTruth` for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

#: How an entry point fires (paper §5.1 trigger taxonomy).
TRIGGERS = ("ui", "lifecycle", "ui_custom", "timer", "server_push", "location")
#: HTTP stack the app is built on (Apache HttpClient / Volley / URLConnection).
TRANSPORTS = ("apache", "volley", "urlconn")
#: Request methods.
METHODS = ("GET", "POST", "PUT", "DELETE")
#: Request-body format (``none`` = no payload beyond the query string).
BODIES = ("none", "form", "json")
#: Response-body format the app processes.
RESPONSES = ("none", "json", "xml", "text")
#: Where the interesting request value comes from (GenEndpoint value kinds).
VALUE_KINDS = ("const", "input", "resource", "clock", "device", "random")
#: Code-shape hazards: the §5.1 classes that separate static analysis,
#: manual fuzzing and automatic fuzzing coverage.
HAZARDS = (
    "plain",  # nothing special
    "intent_hop",  # intent-fed, two-async-hop URL construction (§3.4 miss)
    "login_flow",  # token stored from a login response, replayed later
    "timer_poll",  # fired by a timer, unreachable by fuzzers
    "listener_store",  # response value stored into app state
    "custom_ui",  # behind custom widgets automatic fuzzing fails on
)
#: Version-lineage mutations (protocol drift classes for ``repro diff``).
MUTATIONS = (
    "add_endpoint",  # compatible: one more endpoint in v2
    "add_query_key",  # compatible: an optional query key appears
    "rename_query_key",  # breaking: old consumers keyed on the name go blind
    "cut_dependency",  # breaking: a login-fed field becomes a cached constant
    "obfuscate_rebuild",  # identifier-renamed rebuild, protocol unchanged
)


@dataclass(frozen=True)
class Family:
    """One named dimension grid.

    ``axes`` is an *ordered* tuple of ``(axis_name, values)`` pairs; the
    grid is their cartesian product, decoded mixed-radix from the app
    index by the compiler.  ``multi_endpoint`` marks blend families whose
    apps carry several seeded endpoints on top of the grid point.
    """

    name: str
    description: str
    axes: tuple[tuple[str, tuple[str, ...]], ...]
    multi_endpoint: bool = False

    @property
    def grid_size(self) -> int:
        return prod(len(values) for _, values in self.axes)


#: The shipped families.  Names are single lowercase words — they embed in
#: app keys (``syn-<family>-s<seed>-<index>``) whose parser splits on "-".
_FAMILY_DEFS: tuple[Family, ...] = (
    Family(
        name="transports",
        description="HTTP stack x method x body format x response format",
        axes=(
            ("transport", TRANSPORTS),
            ("method", METHODS),
            ("body", BODIES),
            ("response", RESPONSES),
        ),
    ),
    Family(
        name="triggers",
        description="trigger kind x transport x response format",
        axes=(
            ("trigger", TRIGGERS),
            ("transport", TRANSPORTS),
            ("response", RESPONSES),
        ),
    ),
    Family(
        name="payloads",
        description="request-value provenance x body x response x method",
        axes=(
            ("value", VALUE_KINDS),
            ("body", BODIES),
            ("response", RESPONSES),
            ("method", ("GET", "POST")),
        ),
    ),
    Family(
        name="hazards",
        description="code-shape hazards x transport x body format",
        axes=(
            ("hazard", HAZARDS),
            ("transport", TRANSPORTS),
            ("body", BODIES),
        ),
    ),
    Family(
        name="evolution",
        description="lineage mutation x transport x body; every app ships "
                    "a v2 with known drift ground truth",
        axes=(
            ("mutation", MUTATIONS),
            ("transport", TRANSPORTS),
            ("body", BODIES),
        ),
    ),
    Family(
        name="obfuscated",
        description="ProGuard-style renamed builds x transport x hazard x "
                    "response",
        axes=(
            ("transport", TRANSPORTS),
            ("hazard", ("plain", "login_flow", "timer_poll")),
            ("response", RESPONSES),
        ),
    ),
    Family(
        name="mega",
        description="multi-endpoint blend: 2-5 seeded endpoints per app "
                    "across all axes",
        axes=(
            ("transport", TRANSPORTS),
            ("hazard", ("plain", "login_flow", "intent_hop")),
        ),
        multi_endpoint=True,
    ),
)

FAMILIES: dict[str, Family] = {f.name: f for f in _FAMILY_DEFS}


def family_keys() -> list[str]:
    """Family names in definition order (the order populations expand in)."""
    return [f.name for f in _FAMILY_DEFS]


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown synth family {name!r}; available: {family_keys()}"
        ) from None


def resolve_families(spec: str) -> list[Family]:
    """Resolve a comma-separated family list (or ``all``) into families."""
    if spec == "all":
        return list(_FAMILY_DEFS)
    out = []
    for name in spec.split(","):
        name = name.strip()
        if name:
            out.append(get_family(name))
    if not out:
        raise ValueError(f"empty family list {spec!r}")
    return out


__all__ = [
    "BODIES",
    "FAMILIES",
    "Family",
    "HAZARDS",
    "METHODS",
    "MUTATIONS",
    "RESPONSES",
    "TRANSPORTS",
    "TRIGGERS",
    "VALUE_KINDS",
    "family_keys",
    "get_family",
    "resolve_families",
]
