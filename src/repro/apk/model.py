"""The APK model: the single input Extractocol takes.

An :class:`Apk` bundles the program (Jimple-level classes), the manifest,
the resource table, and the *entry points* — the event handlers the Android
framework may invoke.  Entry points carry trigger metadata used only by the
dynamic baselines (UI fuzzers); the static pipeline analyses every entry
point unconditionally, which is exactly why Extractocol's coverage beats
fuzzing in the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..ir.program import Program
from .manifest import Manifest
from .resources import Resources


class TriggerKind(str, Enum):
    """How an entry point gets invoked at runtime (paper §5.1's taxonomy)."""

    LIFECYCLE = "lifecycle"  # onCreate etc: fired on app launch
    UI = "ui"  # standard clickable; reachable by any fuzzer
    UI_CUSTOM = "ui_custom"  # custom widget; auto UI fuzzing (PUMA) fails
    TIMER = "timer"  # fired by timers (e.g. APK update checks)
    SERVER_PUSH = "server_push"  # triggered by server-sent content updates
    LOCATION = "location"  # location-service callback (async event chain)
    INTENT = "intent"  # inter-app intent; Extractocol does not model these


@dataclass(frozen=True)
class EntryPoint:
    """A framework-invoked method plus its runtime trigger conditions."""

    method_id: str
    kind: TriggerKind = TriggerKind.UI
    name: str = ""
    #: Only reachable after an authenticated session exists (sign-up/log-in).
    requires_login: bool = False
    #: Firing it has real-world side effects (purchase, job application, ...)
    #: — per §5.1 these are off-limits even to careful manual fuzzing.
    side_effect: bool = False
    #: The UI path to this handler goes through custom widgets that
    #: automatic UI fuzzers (PUMA) fail to recognise (§5.1).
    custom_ui: bool = False

    def describe(self) -> str:
        flags = []
        if self.requires_login:
            flags.append("login")
        if self.side_effect:
            flags.append("side-effect")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"{self.name or self.method_id} ({self.kind.value}){suffix}"


@dataclass
class Apk:
    """Everything Extractocol gets: the binary, nothing else."""

    manifest: Manifest
    program: Program
    resources: Resources = field(default_factory=Resources)
    entrypoints: list[EntryPoint] = field(default_factory=list)
    #: True when the app was run through the ProGuard-like obfuscator.
    obfuscated: bool = False

    @property
    def package(self) -> str:
        return self.manifest.package

    @property
    def name(self) -> str:
        return self.manifest.label

    def __repr__(self) -> str:
        return (
            f"Apk({self.package}, {len(self.program.classes)} classes, "
            f"{len(self.entrypoints)} entrypoints)"
        )


__all__ = ["Apk", "EntryPoint", "TriggerKind"]
