"""Generated version lineages: realistic v2/v3 rebuilds of corpus apps.

Protocol-evolution analysis (:mod:`repro.diff`) needs ground truth: pairs
of app versions whose protocol drift is *known*, including whether it is
breaking.  Real released APKs are out of reach here, so lineages are
derived from the shipped corpus the same way releases derive from a
codebase — targeted protocol edits on the :class:`~repro.corpus.generator
.GenApp` spec (new endpoints, added query keys, moved paths, a login
token flow cut over to a cached constant) plus whole-program identifier
renaming via :mod:`repro.apk.obfuscator` / :mod:`repro.apk.rewrite` (the
DexLego-style transformed rebuild).

Each :class:`LineageVersion` knows the diff verdict expected against its
predecessor (``expect_breaking`` + the exact breaking-change kinds), so
the evalx drift table and the CI smoke job can check the diff subsystem
against ground truth, not just against itself.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from ..apk.model import Apk
from ..core.config import AnalysisConfig
from .base import app_config
from .generator import GenApp, GenEndpoint, emit_apk


@dataclass(frozen=True)
class BuiltVersion:
    """One materialised lineage version, ready to analyze."""

    apk: Apk
    config: AnalysisConfig
    #: identifier renames relative to the family's v1 (None = unrenamed)
    renames_from_base: object | None = None


@dataclass
class LineageVersion:
    """One version in a family; ``version`` 1 is the shipped corpus app."""

    family: str
    version: int
    description: str
    #: expected diff verdict vs the *previous* version
    expect_breaking: bool = False
    #: breaking-change kinds the diff vs the previous version must report
    #: (exactly — no more, no fewer distinct kinds)
    expected_breaking_kinds: tuple[str, ...] = ()
    _build: Callable[[], BuiltVersion] = field(default=None, repr=False)

    @property
    def label(self) -> str:
        return f"{self.family}@v{self.version}"

    def materialize(self) -> BuiltVersion:
        return self._build()


# ------------------------------------------------------------ spec edits
def _edit_endpoint(spec: GenApp, name: str, **changes) -> None:
    """Replace fields of the named endpoint in place (on a copied spec)."""
    for i, ep in enumerate(spec.endpoints):
        if ep.name == name:
            spec.endpoints[i] = replace(ep, **changes)
            return
    raise KeyError(f"no endpoint {name!r} in {spec.key}")


def _endpoint(spec: GenApp, name: str) -> GenEndpoint:
    for ep in spec.endpoints:
        if ep.name == name:
            return ep
    raise KeyError(f"no endpoint {name!r} in {spec.key}")


def _mutated(base: Callable[[], GenApp], *edits) -> Callable[[], BuiltVersion]:
    """A builder applying spec edits to a deep copy of the base GenApp."""

    def build() -> BuiltVersion:
        spec = copy.deepcopy(base())
        for edit in edits:
            edit(spec)
        return BuiltVersion(apk=emit_apk(spec), config=app_config(spec))

    return build


def _obfuscated(base: Callable[[], GenApp]) -> Callable[[], BuiltVersion]:
    """A builder renaming every app identifier (deterministically) while
    leaving the protocol untouched — the transformed-rebuild lineage."""

    def build() -> BuiltVersion:
        from ..apk.obfuscator import obfuscate

        spec = base()
        result = obfuscate(emit_apk(spec))
        return BuiltVersion(
            apk=result.apk,
            config=app_config(spec),
            renames_from_base=result.renames,
        )

    return build


def _base(factory: Callable[[], GenApp]) -> Callable[[], BuiltVersion]:
    return _mutated(factory)


# ---------------------------------------------------------- the lineages
def _reddinator_v2(spec: GenApp) -> None:
    """Compatible drift: an added optional query key, a new endpoint and
    a new request header."""
    _edit_endpoint(spec, "feed",
                   query=(("raw_json", "const:1"),))
    _edit_endpoint(spec, "save",
                   headers=(("User-Agent", "const:reddinator/2.0"),))
    spec.endpoints.append(GenEndpoint(
        name="trending",
        method="GET",
        path="/api/trending_subreddits.json",
        response={"subreddit_names": ["pics"]},
        reads=("subreddit_names",),
    ))


def _reddinator_v3(spec: GenApp) -> None:
    """Breaking drift on top of v2: the vote endpoint stops deriving its
    ``uh`` field from the login response — the removed-dependency-source
    class of change (the reddit ``modhash`` flow of paper Table 3)."""
    _reddinator_v2(spec)
    vote = _endpoint(spec, "vote")
    _edit_endpoint(spec, "vote", body=tuple(
        (key, "const:mh-cached" if key == "uh" else kind)
        for key, kind in vote.body
    ))


def _wallabag_v2(spec: GenApp) -> None:
    """Breaking drift: the feed token query key is renamed — old firewall
    rules keyed on ``token=`` no longer see it."""
    ep = _endpoint(spec, "unread_feed")
    _edit_endpoint(spec, "unread_feed", query=tuple(
        ("auth_token", kind) if key == "token" else (key, kind)
        for key, kind in ep.query
    ))


def _twister_v2(spec: GenApp) -> None:
    """Compatible drift: one more RPC endpoint, nothing removed."""
    spec.endpoints.append(GenEndpoint(
        name="getspamposts",
        method="POST",
        path="/rpc/getspamposts",
        body=(("method", "const:getspamposts"), ("params", "input")),
        body_format="form",
        response={"result": [{"userpost": {"msg": "promoted"}}]},
        reads=("result",),
    ))


def _lineage_defs() -> dict[str, list[LineageVersion]]:
    from .opensource.simple import reddinator, twister, tzm, wallabag

    return {
        "reddinator": [
            LineageVersion("reddinator", 1, "shipped corpus app",
                           _build=_base(reddinator)),
            LineageVersion(
                "reddinator", 2,
                "adds raw_json query key, trending endpoint, UA header",
                expect_breaking=False,
                _build=_mutated(reddinator, _reddinator_v2),
            ),
            LineageVersion(
                "reddinator", 3,
                "vote's uh field becomes a cached constant: the "
                "login->vote dependency edge disappears",
                expect_breaking=True,
                expected_breaking_kinds=("dependency-removed",),
                _build=_mutated(reddinator, _reddinator_v3),
            ),
        ],
        "wallabag": [
            LineageVersion("wallabag", 1, "shipped corpus app",
                           _build=_base(wallabag)),
            LineageVersion(
                "wallabag", 2,
                "feed auth query key renamed token -> auth_token",
                expect_breaking=True,
                expected_breaking_kinds=("query-key-removed",),
                _build=_mutated(wallabag, _wallabag_v2),
            ),
        ],
        "twister": [
            LineageVersion("twister", 1, "shipped corpus app",
                           _build=_base(twister)),
            LineageVersion(
                "twister", 2,
                "adds the getspamposts RPC",
                expect_breaking=False,
                _build=_mutated(twister, _twister_v2),
            ),
        ],
        "tzm": [
            LineageVersion("tzm", 1, "shipped corpus app",
                           _build=_base(tzm)),
            LineageVersion(
                "tzm", 2,
                "obfuscated rebuild: every identifier renamed, protocol "
                "identical (needs the RenameMap lineage to diff clean)",
                expect_breaking=False,
                _build=_obfuscated(tzm),
            ),
        ],
    }


_LINEAGES: dict[str, list[LineageVersion]] | None = None


def lineages() -> dict[str, list[LineageVersion]]:
    """All lineage families, keyed by family (corpus app) key."""
    global _LINEAGES
    if _LINEAGES is None:
        _LINEAGES = _lineage_defs()
    return _LINEAGES


def lineage_keys() -> list[str]:
    return sorted(lineages())


def lineage(family: str) -> list[LineageVersion]:
    if family.startswith("syn-"):
        from ..synth import synth_lineage

        return synth_lineage(family)
    try:
        return lineages()[family]
    except KeyError:
        raise KeyError(
            f"no lineage family {family!r}; available: {lineage_keys()}"
        ) from None


def is_version_label(target: str) -> bool:
    """Whether ``target`` names a lineage version (``app@vN``) rather
    than an app key or an ``.sapk`` path, which may contain ``@``."""
    return "@" in target and not Path(target).exists()


def lineage_version(label: str) -> LineageVersion:
    """The lineage version ``family@vN`` names, without building it.

    Hand-written corpus lineages and synthesized (``syn-...``) lineages
    share one label grammar; a label that names no version raises
    :class:`LookupError`."""
    family, _, version = label.partition("@")
    if not version.startswith("v") or not version[1:].isdigit():
        raise LookupError(
            f"{label!r} is not a lineage version label (expected app@vN)"
        )
    wanted = int(version[1:])
    for lv in lineage(family):
        if lv.version == wanted:
            return lv
    raise LookupError(
        f"{family!r} has no version {wanted}; versions: "
        f"{[lv.version for lv in lineage(family)]}"
    )


def build_version(label: str) -> BuiltVersion:
    """Materialise a lineage version from its ``family@vN`` label."""
    return lineage_version(label).materialize()


__all__ = [
    "BuiltVersion",
    "LineageVersion",
    "build_version",
    "is_version_label",
    "lineage",
    "lineage_keys",
    "lineage_version",
    "lineages",
]
