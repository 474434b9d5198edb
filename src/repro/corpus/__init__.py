"""The evaluation corpus: 14 open-source + 20 closed-source apps (Table 1).

Usage::

    from repro.corpus import app_keys, build_app, get_spec

    apk = build_app("diode")
    spec = get_spec("ted")
    network = spec.build_network()
"""

from __future__ import annotations

from ..apk.model import Apk
from .base import AppSpec, EndpointTruth, GroundTruth, app_config
from .closedsource import all_fleet_apps, kayak, ted
from .generator import GenApp, GenEndpoint, build_generated_app, emit_apk
from .lineage import (
    BuiltVersion,
    LineageVersion,
    build_version,
    lineage,
    lineage_keys,
    lineages,
)
from .opensource import ALL_SIMPLE_OPEN, diode, radioreddit, weather_notification

_REGISTRY: dict[str, GenApp] | None = None
_SPECS: dict[str, AppSpec] = {}


def registry() -> dict[str, GenApp]:
    """Every corpus app's :class:`GenApp`, keyed by app key (constructed
    lazily and cached).  Constructing them emits no IR: keys, kinds,
    protocols and names read straight off them."""
    global _REGISTRY
    if _REGISTRY is None:
        apps = [factory() for factory in ALL_SIMPLE_OPEN]
        apps += [diode(), radioreddit(), weather_notification(), ted(), kayak()]
        apps += all_fleet_apps()
        _REGISTRY = {app.key: app for app in apps}
    return _REGISTRY


def get_genapp(key: str) -> GenApp:
    """The :class:`GenApp` of a corpus key or a synthesized (``syn-``) key."""
    if key.startswith("syn-"):
        # synthesized apps are compiled from their self-describing key, not
        # registered — any process can materialise them without shared state
        from ..synth import synth_genapp

        return synth_genapp(key)
    try:
        return registry()[key]
    except KeyError:
        raise KeyError(
            f"unknown corpus app {key!r}; available: {sorted(registry())}"
        ) from None


def get_spec(key: str) -> AppSpec:
    """The corpus entry of ``key``, with its ground truth: its probe emit
    runs on the first request for the key, and the entry is cached."""
    if key.startswith("syn-"):
        from ..synth import synth_spec

        return synth_spec(key)
    spec = _SPECS.get(key)
    if spec is None:
        spec = _SPECS[key] = build_generated_app(get_genapp(key))
    return spec


def build_app(key: str) -> Apk:
    """Build the APK model for a corpus or synthesized app: one emit."""
    if key.startswith("syn-"):
        from ..synth import synth_apk

        return synth_apk(key)
    return emit_apk(get_genapp(key))


def app_keys(kind: str | None = None) -> list[str]:
    """Corpus app keys, optionally filtered by kind ("open"/"closed")."""
    return sorted(
        k for k, app in registry().items() if kind is None or app.kind == kind
    )


__all__ = [
    "AppSpec",
    "BuiltVersion",
    "EndpointTruth",
    "GenApp",
    "GenEndpoint",
    "GroundTruth",
    "LineageVersion",
    "app_config",
    "app_keys",
    "build_app",
    "build_generated_app",
    "build_version",
    "emit_apk",
    "get_genapp",
    "get_spec",
    "lineage",
    "lineage_keys",
    "lineages",
    "registry",
]
