"""Semantic-model registry and the interpreter-facing plugin API.

Paper §3.2: "Extractocol uses semantic models for a set of Android and Java
APIs that are commonly used for HTTP protocol processing.  The model
captures the semantics of each API's operations and its parameters. ...
To be extensible, we also provide an easy plugin for adding new API
semantics."

A *handler* models one library method.  It receives the interpreter
services, the call expression and the abstract base/argument values, and
returns either an abstract value (the call result), an :class:`Effect`
(result plus a rebinding of the receiver, for fluent mutators like
``StringBuilder.append``), or :data:`UNHANDLED`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from ..ir.statements import StmtRef
from ..ir.values import InvokeExpr
from .avals import AVal, RequestAV, RespRef

#: Sentinel: the handler does not model this call after all.
UNHANDLED = object()


@dataclass
class Effect:
    """Handler outcome: ``result`` is the call's value; ``new_base``
    (when set) rebinds the receiver local — how mutation of builder-style
    objects is modeled without a heap."""

    result: AVal | None = None
    new_base: AVal | None = None


class InterpServices(Protocol):
    """What handlers may ask of the signature interpreter."""

    def record_transaction(
        self, site: StmtRef, request: RequestAV, *, response_kind: str = "unknown"
    ) -> RespRef | None:
        """Register a DP arrival; returns the response reference (or None
        for response-less DPs such as MediaPlayer)."""

    def acc_of(self, acc_id: int): ...

    def mark_response_kind(self, ref: RespRef, kind: str) -> None: ...

    def record_access(self, ref: RespRef, leaf_kind: str | None = None) -> None: ...

    def record_consumer(self, ref_or_term, consumer: str) -> None: ...

    def call_app_method(self, class_name: str, method_name: str, args: list[AVal],
                        this: AVal | None = None) -> AVal | None:
        """Evaluate an app callback (listener) inline."""

    def resource_string(self, rid: int) -> str | None: ...

    def db_store(self, table: str, column: str, value: AVal) -> None: ...

    def db_load(self, table: str, column: str | None = None) -> AVal: ...

    def pref_store(self, key: str, value: AVal) -> None: ...

    def pref_load(self, key: str) -> AVal: ...

    def conn_new(self, url_term) -> int: ...

    def conn_of(self, conn_id: int): ...

    def class_hierarchy_of(self, class_name: str) -> set[str]: ...


Handler = Callable[..., object]


class SemanticModel:
    """Registry mapping library (class, method) pairs to handlers."""

    def __init__(self) -> None:
        self._handlers: dict[tuple[str, str], Handler] = {}
        #: framework dispatch: calls on app objects whose *library ancestor*
        #: defines the method (AsyncTask.execute, Thread.start, ...)
        self._dispatch: dict[tuple[str, str], Handler] = {}

    # -- registration ------------------------------------------------------
    def register(self, class_names: str | tuple[str, ...], method_names: str | tuple[str, ...]):
        classes = (class_names,) if isinstance(class_names, str) else class_names
        methods = (method_names,) if isinstance(method_names, str) else method_names

        def deco(fn: Handler) -> Handler:
            for c in classes:
                for m in methods:
                    self._handlers[(c, m)] = fn
            return fn

        return deco

    def register_dispatch(self, base_classes: str | tuple[str, ...], method_names: str | tuple[str, ...]):
        classes = (base_classes,) if isinstance(base_classes, str) else base_classes
        methods = (method_names,) if isinstance(method_names, str) else method_names

        def deco(fn: Handler) -> Handler:
            for c in classes:
                for m in methods:
                    self._dispatch[(c, m)] = fn
            return fn

        return deco

    # -- lookup ----------------------------------------------------------------
    def lookup(self, class_name: str, method_name: str) -> Handler | None:
        return self._handlers.get((class_name, method_name))

    def lookup_dispatch(self, ancestors: set[str], method_name: str) -> Handler | None:
        for ancestor in ancestors:
            h = self._dispatch.get((ancestor, method_name))
            if h is not None:
                return h
        return None

    def merge(self, other: "SemanticModel") -> None:
        self._handlers.update(other._handlers)
        self._dispatch.update(other._dispatch)


_DEFAULT: SemanticModel | None = None


def default_model() -> SemanticModel:
    """The built-in model covering the paper's API set (§4)."""
    global _DEFAULT
    if _DEFAULT is None:
        model = SemanticModel()
        from . import android as _android
        from . import async_model as _async
        from . import containers as _containers
        from . import http_apache as _apache
        from . import http_okhttp as _okhttp
        from . import http_urlconn as _urlconn
        from . import http_volley as _volley
        from . import json_model as _json
        from . import strings as _strings
        from . import xml_model as _xml

        for module in (
            _strings,
            _containers,
            _json,
            _xml,
            _apache,
            _urlconn,
            _volley,
            _okhttp,
            _android,
            _async,
        ):
            module.register(model)
        _DEFAULT = model
    return _DEFAULT


__all__ = [
    "Effect",
    "Handler",
    "InterpServices",
    "SemanticModel",
    "UNHANDLED",
    "default_model",
]
