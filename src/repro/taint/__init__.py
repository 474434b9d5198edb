"""Bidirectional static taint analysis (the FlowDroid substitute).

The public names are resolved lazily: ``repro.perf.index`` imports
``taint.defuse`` while ``taint.engine`` imports ``perf.index`` back, so an
eager ``from .engine import ...`` here would turn any import that reaches
``repro.perf`` first into a circular-import error.
"""

from typing import Any

_LAZY = {
    "DefUseInfo": ("defuse", "DefUseInfo"),
    "compute_defuse": ("defuse", "compute_defuse"),
    "NOFLOW_CALLS": ("engine", "NOFLOW_CALLS"),
    "TaintConfig": ("engine", "TaintConfig"),
    "TaintEngine": ("engine", "TaintEngine"),
    "SliceResult": ("slices", "SliceResult"),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module_name}", __name__), attr)
    globals()[name] = value
    return value
