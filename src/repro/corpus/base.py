"""Corpus foundation: app specifications and ground truth.

Every corpus app packages (1) an APK built in the IR, (2) a scripted origin
server, and (3) the ground-truth endpoint inventory — the "source code
analysis" column of Table 1 for open-source apps.  Endpoint trigger classes
encode *why* each discovery method sees or misses a message, per §5.1:

========================  =========  ============  ==========  ==========
endpoint class             static     manual fuzz   auto fuzz   example
========================  =========  ============  ==========  ==========
plain UI                   yes        yes           yes         browse feed
login-gated / custom UI    yes        yes           no          saved items
side-effect action         yes        no            no          purchase
timer / server push        yes        no            no          update check
intent + multi-hop async   no (§3.4)  yes           sometimes   ad libraries
========================  =========  ============  ==========  ==========
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..apk.model import Apk
from ..core.config import AnalysisConfig
from ..runtime.httpstack import Network

if TYPE_CHECKING:
    from .generator import GenApp


@dataclass(frozen=True)
class EndpointTruth:
    """One endpoint in the app's source-code inventory."""

    name: str
    method: str  # GET | POST | PUT | DELETE
    #: request payload class: "query" (query string or form body), "json",
    #: "xml", or None
    request_body: str | None = None
    #: response body class the app processes: "json", "xml", or None
    response_body: str | None = None
    #: discovery class, see the table above
    static_visible: bool = True
    manual_visible: bool = True
    auto_visible: bool = True


@dataclass
class GroundTruth:
    endpoints: list[EndpointTruth] = field(default_factory=list)

    def count(self, method: str | None = None, *, visible_to: str | None = None) -> int:
        out = 0
        for ep in self.endpoints:
            if method is not None and ep.method != method:
                continue
            if visible_to == "static" and not ep.static_visible:
                continue
            if visible_to == "manual" and not ep.manual_visible:
                continue
            if visible_to == "auto" and not ep.auto_visible:
                continue
            out += 1
        return out

    def pairs(self) -> int:
        return sum(1 for ep in self.endpoints if ep.response_body)


@dataclass
class AppSpec:
    """A corpus entry: builders plus metadata for the evaluation tables."""

    key: str
    name: str
    kind: str  # "open" | "closed"
    protocol: str  # "HTTP" | "HTTPS" | "HTTP(S)"
    build_apk: Callable[[], Apk]
    build_network: Callable[[], Network]
    truth: GroundTruth
    #: class-name prefixes for scoped analysis (Kayak case study)
    scope_prefixes: tuple[str, ...] = ()
    notes: str = ""

    def analysis_config(self) -> AnalysisConfig:
        """A fresh config with this app's setup (:func:`app_config`)."""
        return app_config(self)


def app_config(app: AppSpec | GenApp) -> AnalysisConfig:
    """A fresh config with the paper's §5.1 per-app setup: async
    heuristic off for open-source apps, on for closed-source; Kayak
    scoped to its own classes."""
    return AnalysisConfig(
        async_heuristic=(app.kind == "closed"),
        scope_prefixes=app.scope_prefixes,
    )


__all__ = ["AppSpec", "EndpointTruth", "GroundTruth", "app_config"]
