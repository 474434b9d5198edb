"""Pipeline core: configuration, the Extractocol analyzer, reports."""

from typing import Any

__all__ = ["AnalysisConfig", "AnalysisReport", "Extractocol", "SignatureStats"]

_LAZY = {
    "AnalysisConfig": "config",
    "AnalysisReport": "report",
    "Extractocol": "extractocol",
    "SignatureStats": "report",
}


def __getattr__(name: str) -> Any:
    """Lazy re-exports: importing ``repro.core.config`` (the CLI does, for
    ``MODES``) must not load the whole pipeline."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.core' has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
