"""Grid compiler: ``(family, seed, index)`` -> deterministic ``GenApp``.

Every synthesized app is addressed by a *self-describing key*::

    syn-<family>-s<seed>-<index>          e.g. syn-transports-s7-0041

and populations by a *population spec*::

    synth:<families>*<scale>[@<seed>]     e.g. synth:all*500@7

The key encodes everything needed to rebuild the app, so any process — a
sharded batch worker, a diff resolver, a CI job on another machine — can
materialise the identical APK without shared state.  Determinism rules:

* The grid point is the mixed-radix decode of ``(index + offset) %
  grid_size`` where ``offset`` is a seed-derived rotation — every seed
  still covers the whole grid, but walks it from a different corner.
* All per-app entropy (hosts, paths, names, literal values, filler
  counts) comes from one ``random.Random`` seeded with
  ``sha256("repro.synth:<family>:<seed>:<index>")`` — no global RNG, no
  dict-order dependence, byte-identical ``.sapk`` bundles across runs and
  platforms.
* Grid constraints are *normalised*, never rejected: e.g. Volley only
  ships GET/POST with JSON payloads, so those axes are coerced (the
  corpus generator would otherwise emit code shapes no real app has).
  Normalisation is a pure function of the raw coordinates.

Lineages: apps whose grid point carries a ``mutation`` axis get a ``v2``
(:class:`~repro.corpus.lineage.LineageVersion`) with known drift ground
truth, consumable by ``repro diff syn-...@v1 syn-...@v2`` and the drift
evaluator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial

from ..apk.model import Apk, TriggerKind
from ..corpus.base import AppSpec
from ..corpus.generator import (
    GenApp,
    GenEndpoint,
    build_generated_app,
    emit_apk,
)
from ..corpus.lineage import (
    LineageVersion,
    _edit_endpoint,
    _mutated,
    _obfuscated,
)
from .families import Family, family_keys, get_family, resolve_families

_KEY_RE = re.compile(r"^syn-([a-z][a-z0-9]*)-s(\d+)-(\d+)$")
_POP_RE = re.compile(r"^synth:([a-z0-9,]+|all)\*(\d+)(?:@(\d+))?$")

_WORDS = (
    "feed", "items", "search", "detail", "status", "events", "photos",
    "alerts", "drafts", "bundle", "radar", "queue", "topics", "scores",
    "routes", "assets", "orders", "badges", "trends", "digest",
)
_HOST_WORDS = (
    "api", "mobile", "svc", "edge", "app", "gw", "data", "cdn",
)
_TLDS = ("example", "test", "invalid")


# --------------------------------------------------------------- keys
def app_key(family: str, seed: int, index: int) -> str:
    return f"syn-{family}-s{seed}-{index:04d}"


def is_synth_key(key: str) -> bool:
    return key.startswith("syn-")


def parse_app_key(key: str) -> tuple[str, int, int]:
    """``syn-<family>-s<seed>-<index>`` -> ``(family, seed, index)``."""
    m = _KEY_RE.match(key)
    if m is None:
        raise KeyError(
            f"{key!r} is not a synthesized-app key "
            f"(expected syn-<family>-s<seed>-<index>)"
        )
    family, seed, index = m.group(1), int(m.group(2)), int(m.group(3))
    get_family(family)  # raises KeyError on unknown family
    return family, seed, index


# --------------------------------------------------- population specs
@dataclass(frozen=True)
class PopulationSpec:
    """A parsed ``synth:<families>*<scale>[@<seed>]`` spec."""

    families: tuple[str, ...]
    scale: int
    seed: int

    @property
    def spec(self) -> str:
        fams = ",".join(self.families)
        if tuple(self.families) == tuple(family_keys()):
            fams = "all"
        return f"synth:{fams}*{self.scale}@{self.seed}"

    def counts(self) -> dict[str, int]:
        """Apps per family: ``scale`` split evenly, remainder front-loaded."""
        n = len(self.families)
        base, extra = divmod(self.scale, n)
        return {
            fam: base + (1 if i < extra else 0)
            for i, fam in enumerate(self.families)
        }

    def keys(self) -> list[str]:
        out: list[str] = []
        for fam, count in self.counts().items():
            out.extend(app_key(fam, self.seed, i) for i in range(count))
        return out


def is_population_spec(target: str) -> bool:
    return target.startswith("synth:")


def parse_population(spec: str) -> PopulationSpec:
    m = _POP_RE.match(spec)
    if m is None:
        raise ValueError(
            f"{spec!r} is not a population spec "
            f"(expected synth:<families>*<scale>[@<seed>], "
            f"e.g. synth:all*100@7)"
        )
    families = tuple(f.name for f in resolve_families(m.group(1)))
    scale = int(m.group(2))
    if scale < 1:
        raise ValueError(f"population scale must be >= 1, got {scale}")
    seed = int(m.group(3)) if m.group(3) is not None else 0
    return PopulationSpec(families=families, scale=scale, seed=seed)


def expand_targets(targets: list[str]) -> list[str]:
    """Expand population specs in a target list into app keys in place."""
    out: list[str] = []
    for target in targets:
        if is_population_spec(target):
            out.extend(parse_population(target).keys())
        else:
            out.append(target)
    return out


# ----------------------------------------------------- grid decoding
def _stable_int(*parts: object) -> int:
    import hashlib

    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(f"repro.synth:{text}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _rng(family: str, seed: int, index: int):
    import random

    return random.Random(_stable_int(family, seed, index))


def grid_point(family: Family, seed: int, index: int) -> dict[str, str]:
    """Mixed-radix decode of the app's grid cell (seed-rotated)."""
    size = family.grid_size
    offset = _stable_int(family.name, seed) % size
    n = (index + offset) % size
    coords: dict[str, str] = {}
    for axis, values in family.axes:
        coords[axis] = values[n % len(values)]
        n //= len(values)
    return coords


def normalize_coords(coords: dict[str, str]) -> dict[str, str]:
    """Apply transport/method/body/response legality constraints.

    Pure and idempotent — the soundness sweep and the ground-truth probe
    must agree on the exact shapes emitted:

    * Volley ships GET/POST JSON requests whose responses land in a JSON
      listener: method in {GET, POST}, body in {none, json}, response json.
    * URLConnection writes only JSON payloads: form bodies become json.
    * Bodies ride on POST/PUT only (GET/DELETE drop theirs), and a
      ``cut_dependency`` mutation needs a body to cut (none -> json).
    """
    out = dict(coords)
    transport = out.get("transport", "apache")
    if out.get("mutation") == "cut_dependency" and out.get("body", "none") == "none":
        out["body"] = "json"
    if transport == "volley":
        if out.get("method") not in (None, "GET", "POST"):
            out["method"] = "POST"
        if out.get("body") == "form":
            out["body"] = "json"
        if "response" in out:
            out["response"] = "json"
    if transport == "urlconn" and out.get("body") == "form":
        out["body"] = "json"
    if out.get("body", "none") != "none":
        if out.get("method") in ("GET", "DELETE"):
            out["method"] = "POST"
        out.setdefault("method", "POST")
    return out


# ------------------------------------------------------ app assembly
def _value_expr(kind: str, rng) -> str:
    """Map a value-axis coordinate onto a GenEndpoint value expression."""
    if kind == "const":
        return f"const:{rng.choice(_WORDS)}-{rng.randint(1, 99)}"
    if kind == "resource":
        return "resource:api_key"
    return kind  # input / clock / device / random are literal kinds


_TRIGGER_MAP = {
    "ui": TriggerKind.UI,
    "lifecycle": TriggerKind.LIFECYCLE,
    "ui_custom": TriggerKind.UI_CUSTOM,
    "timer": TriggerKind.TIMER,
    "server_push": TriggerKind.SERVER_PUSH,
    "location": TriggerKind.LOCATION,
}


class _Namer:
    """Collision-free endpoint names inside one app."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.seen: set[str] = set()

    def pick(self, prefix: str | None = None) -> str:
        base = prefix or self.rng.choice(_WORDS)
        name = base
        n = 1
        while name in self.seen:
            n += 1
            name = f"{base}{n}"
        self.seen.add(name)
        return name


def _response_kwargs(response: str, name: str, rng, *, store: bool = False) -> dict:
    """Response-side GenEndpoint fields for one response-axis value."""
    if response == "json":
        payload = {
            "status": "ok",
            f"{name}_id": f"id-{rng.randint(1000, 9999)}",
            "cursor": f"cur-{name}-{rng.randint(1, 9)}",
            "ts": 1480000000,
        }
        reads = (f"{name}_id", "cursor")
        kwargs: dict = {"response": payload, "reads": reads}
        if store:
            kwargs["store"] = {"cursor": f"{name}_cursor"}
        return kwargs
    if response == "xml":
        a, b = rng.sample(_WORDS, 2)
        doc = (
            f"<{name}><{a}>{rng.randint(1, 99)}</{a}>"
            f"<{b}>v-{rng.randint(1, 99)}</{b}></{name}>"
        )
        return {"response_xml": doc, "xml_reads": (a, b)}
    if response == "text":
        return {
            "display_text": True,
            "text_response": f"{name} page {rng.randint(1, 99)}",
        }
    return {}


def _primary_endpoint(
    coords: dict[str, str], namer: _Namer, rng, *, has_login: bool
) -> GenEndpoint:
    """The app's main endpoint, shaped by the (normalised) grid point."""
    method = coords.get("method") or rng.choice(("GET", "POST"))
    body_fmt = coords.get("body", "none")
    if body_fmt != "none" and method in ("GET", "DELETE"):
        method = "POST"
    response = coords.get("response", rng.choice(("json", "none")))
    hazard = coords.get("hazard", "plain")
    name = namer.pick()
    path = f"/api/v{rng.randint(1, 3)}/{name}"

    value_kind = coords.get("value")
    query: list[tuple[str, str]] = [
        ("tag", f"const:{rng.choice(_WORDS)}"),
    ]
    if value_kind is not None:
        query.append((f"{value_kind[:1]}p", _value_expr(value_kind, rng)))
    elif rng.random() < 0.5:
        query.append(("q", "input"))

    body: tuple[tuple[str, str], ...] = ()
    body_format = None
    if body_fmt != "none":
        body = (("payload", "input"), ("client_ts", "clock"))
        if coords.get("mutation") == "cut_dependency" or (
            has_login and hazard == "login_flow"
        ):
            body = (("token", "field:token"),) + body
        body_format = body_fmt

    headers: tuple[tuple[str, str], ...] = ()
    trigger = _TRIGGER_MAP[coords.get("trigger", "ui")]
    requires_login = False
    custom_ui = False
    via_intent = False
    store = False

    if hazard == "login_flow":
        headers = (("Authorization", "field:token"),)
        requires_login = True
    elif hazard == "timer_poll":
        trigger = TriggerKind.TIMER
    elif hazard == "custom_ui":
        trigger = TriggerKind.UI_CUSTOM
        custom_ui = True
    elif hazard == "listener_store":
        store = True
        if response not in ("json",):
            response = "json"
    elif hazard == "intent_hop":
        via_intent = True
    if trigger == TriggerKind.UI_CUSTOM:
        custom_ui = True

    kwargs = _response_kwargs(response, name, rng, store=store)
    if via_intent:
        # the intent emitter builds the URL across two async hops and
        # never parses the response; strip shapes it cannot carry
        query, body, body_format, headers, kwargs = [], (), None, (), {}
    return GenEndpoint(
        name=name,
        method=method,
        path=path,
        query=tuple(query),
        body=body,
        body_format=body_format,
        headers=headers,
        trigger=trigger,
        requires_login=requires_login,
        custom_ui=custom_ui,
        via_intent=via_intent,
        **kwargs,
    )


def _login_endpoint(namer: _Namer, rng) -> GenEndpoint:
    namer.seen.add("login")
    return GenEndpoint(
        name="login",
        method="POST",
        path="/api/auth/login",
        body=(("user", "input"), ("passwd", "input")),
        body_format="json",
        response={"token": f"tok-{rng.randint(100, 999)}", "uid": "u-1"},
        reads=("token",),
        store={"token": "token"},
    )


def _extra_endpoint(
    namer: _Namer, rng, *, transport: str, with_token: bool
) -> GenEndpoint:
    """A seeded secondary endpoint (mega blend / add_endpoint mutations)."""
    coords = normalize_coords({
        "transport": transport,
        "method": rng.choice(("GET", "POST")),
        "body": rng.choice(("none", "none", "json", "form")),
        "response": rng.choice(("json", "json", "xml", "text", "none")),
        "trigger": rng.choice(("ui", "ui", "lifecycle", "timer")),
    })
    name = namer.pick()
    kwargs = _response_kwargs(coords["response"], name, rng)
    body: tuple[tuple[str, str], ...] = ()
    if coords["body"] != "none":
        body = ((f"{name}_arg", "input"),)
        if with_token:
            body += (("token", "field:token"),)
    return GenEndpoint(
        name=name,
        method=coords["method"],
        path=f"/api/v{rng.randint(1, 3)}/{name}",
        query=(("page", f"int:{rng.randint(1, 5)}"),),
        body=body,
        body_format=coords["body"] if body else None,
        trigger=_TRIGGER_MAP[coords["trigger"]],
        requires_login=with_token,
        **kwargs,
    )


def synth_genapp(key: str) -> GenApp:
    """Compile one synthesized-app key into its :class:`GenApp` spec."""
    family_name, seed, index = parse_app_key(key)
    family = get_family(family_name)
    rng = _rng(family_name, seed, index)
    coords = normalize_coords(grid_point(family, seed, index))

    namer = _Namer(rng)
    hazard = coords.get("hazard", "plain")
    needs_login = hazard == "login_flow" or coords.get("mutation") == "cut_dependency"

    endpoints: list[GenEndpoint] = []
    if needs_login:
        endpoints.append(_login_endpoint(namer, rng))
    endpoints.append(
        _primary_endpoint(coords, namer, rng, has_login=needs_login)
    )
    if family.multi_endpoint:
        for _ in range(rng.randint(1, 4)):
            endpoints.append(_extra_endpoint(
                namer, rng,
                transport=coords.get("transport", "apache"),
                with_token=False,
            ))

    host = (
        f"{rng.choice(_HOST_WORDS)}.{rng.choice(_WORDS)}"
        f"{rng.randint(0, 99)}.{rng.choice(_TLDS)}"
    )
    https = rng.random() < 0.7
    # Volley's listener hop and intent-fed chains are the async shapes the
    # paper enables §3.4's heuristic for (its closed-source setup).
    kind = (
        "closed"
        if coords.get("transport") == "volley" or hazard == "intent_hop"
        else "open"
    )
    resources = {}
    if coords.get("value") == "resource":
        resources["api_key"] = f"key-{rng.randint(10000, 99999)}"
    return GenApp(
        key=key,
        name=f"Synth {family_name.title()} #{index}",
        kind=kind,
        package=f"net.synth.{family_name}.a{index:04d}",
        host=host,
        https=https,
        protocol="HTTPS" if https else "HTTP",
        endpoints=endpoints,
        resources=resources,
        filler_methods=rng.randint(4, 9),
        transport=coords.get("transport", "apache"),
        notes=f"grid={coords!r} family={family_name} seed={seed} index={index}",
    )


def _is_obfuscated(key: str) -> bool:
    family_name, _, _ = parse_app_key(key)
    return family_name == "obfuscated"


def synth_apk(key: str) -> Apk:
    """A synthesized app's APK from one emit; the apps of the
    ``obfuscated`` family ship with every app identifier renamed."""
    apk = emit_apk(synth_genapp(key))
    if _is_obfuscated(key):
        from ..apk.obfuscator import obfuscate

        apk = obfuscate(apk).apk
    return apk


@lru_cache(maxsize=4096)
def synth_spec(key: str) -> AppSpec:
    """Materialise a synthesized-app key into a corpus :class:`AppSpec`."""
    spec = build_generated_app(synth_genapp(key))
    spec.build_apk = partial(synth_apk, key)
    return spec


# ----------------------------------------------------------- lineages
def _mutation(name: str):
    """The v2 spec edit of mutation ``name``.  All but ``add_endpoint``
    edit the *primary* endpoint, the last non-login endpoint of v1."""

    def edit(spec: GenApp) -> None:
        if name == "add_endpoint":
            rng = _rng(spec.key, "v2", name)
            namer = _Namer(rng)
            namer.seen.update(ep.name for ep in spec.endpoints)
            spec.endpoints.append(_extra_endpoint(
                namer, rng, transport=spec.transport, with_token=False
            ))
            return
        ep = next(ep for ep in reversed(spec.endpoints) if ep.name != "login")
        if name == "add_query_key":
            changes = {"query": ep.query + (("raw", "const:1"),)}
        elif name == "rename_query_key":
            changes = {"query": tuple(
                ("tag_v2", kind) if key == "tag" else (key, kind)
                for key, kind in ep.query
            )}
        elif name == "cut_dependency":
            changes = {"body": tuple(
                (key, "const:tok-cached" if kind == "field:token" else kind)
                for key, kind in ep.body
            )}
        else:
            raise ValueError(f"unknown mutation {name!r}")
        _edit_endpoint(spec, ep.name, **changes)

    return edit


def _build_mutated(key: str, mutation: str | None):
    """A BuiltVersion builder applying ``mutation`` to the app's base spec
    (``None`` = the unmutated v1), through the corpus lineage builders."""
    base = partial(synth_genapp, key)
    if mutation == "obfuscate_rebuild":
        return _obfuscated(base)
    if mutation is None:
        return _mutated(base)
    return _mutated(base, _mutation(mutation))


_MUTATION_DRIFT = {
    "add_endpoint": (False, ()),
    "add_query_key": (False, ()),
    "rename_query_key": (True, ("query-key-removed",)),
    "cut_dependency": (True, ("dependency-removed",)),
    "obfuscate_rebuild": (False, ()),
}


def synth_lineage(key: str) -> list[LineageVersion]:
    """The version lineage of one synthesized app.

    v1 is the grid app itself.  Apps whose grid point carries a
    ``mutation`` axis additionally get a v2 with known drift ground truth
    (``expect_breaking`` + exact breaking kinds), mirroring the
    hand-written corpus lineages.
    """
    family_name, seed, index = parse_app_key(key)
    family = get_family(family_name)
    coords = normalize_coords(grid_point(family, seed, index))
    versions = [
        LineageVersion(
            family=key, version=1,
            description=f"synthesized grid app ({coords!r})",
            _build=_build_mutated(key, None),
        )
    ]
    mutation = coords.get("mutation")
    if mutation is not None:
        expect_breaking, kinds = _MUTATION_DRIFT[mutation]
        versions.append(
            LineageVersion(
                family=key, version=2,
                description=f"{mutation} mutation",
                expect_breaking=expect_breaking,
                expected_breaking_kinds=kinds,
                _build=_build_mutated(key, mutation),
            )
        )
    return versions


# -------------------------------------------------- population digest
def population_manifest(pop: PopulationSpec) -> dict:
    """Deterministic spec-level manifest of a population: per-app grid
    coordinates, truth totals, lineage labels — plus a population digest
    (stable across runs/platforms; the CI determinism check compares it)."""
    apps = []
    for key in pop.keys():
        gen = synth_genapp(key)
        spec = synth_spec(key)
        lineage = synth_lineage(key)
        family_name, _, index = parse_app_key(key)
        family = get_family(family_name)
        coords = normalize_coords(grid_point(family, pop.seed, index))
        apps.append({
            "key": key,
            "family": family_name,
            "kind": gen.kind,
            "transport": gen.transport,
            "grid": coords,
            "endpoints": len(gen.endpoints),
            "truth": {
                "total": spec.truth.count(),
                "static": spec.truth.count(visible_to="static"),
                "manual": spec.truth.count(visible_to="manual"),
                "auto": spec.truth.count(visible_to="auto"),
                "pairs": spec.truth.pairs(),
            },
            "versions": [lv.label for lv in lineage],
        })
    import hashlib
    import json

    digest = hashlib.sha256(
        json.dumps(apps, sort_keys=True).encode()
    ).hexdigest()
    return {
        "spec": pop.spec,
        "families": {fam: n for fam, n in pop.counts().items()},
        "apps": apps,
        "totals": {
            "apps": len(apps),
            "endpoints": sum(a["endpoints"] for a in apps),
            "truth_endpoints": sum(a["truth"]["total"] for a in apps),
            "lineage_versions": sum(len(a["versions"]) for a in apps),
        },
        "digest": digest,
    }


__all__ = [
    "PopulationSpec",
    "app_key",
    "expand_targets",
    "grid_point",
    "is_population_spec",
    "is_synth_key",
    "normalize_coords",
    "parse_app_key",
    "parse_population",
    "population_manifest",
    "synth_apk",
    "synth_genapp",
    "synth_lineage",
    "synth_spec",
]
