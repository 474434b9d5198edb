"""Load/save ``.sapk`` bundles — the on-disk APK substitute.

A ``.sapk`` is a directory (or zip) containing:

* ``manifest.json``      — the :class:`~repro.apk.manifest.Manifest`,
* ``resources.json``     — string resources,
* ``entrypoints.json``   — framework entry points with trigger metadata,
* ``classes.jimple``     — the program in the textual IR format.

Corpus apps can be saved to ``.sapk`` and re-loaded, which exercises the
printer/parser round-trip on every corpus program.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path

from ..ir.parser import parse_program
from ..ir.printer import print_program
from .manifest import Manifest
from .model import Apk, BundleError, EntryPoint, TriggerKind
from .resources import Resources

_FILES = ("manifest.json", "resources.json", "entrypoints.json", "classes.jimple")


def bundle_contents(apk: Apk) -> dict[str, str]:
    """The canonical ``.sapk`` file set for an APK model — the single
    source of truth for both on-disk bundles and content digests."""
    return {
        "manifest.json": json.dumps(apk.manifest.to_dict(), indent=2),
        "resources.json": json.dumps(apk.resources.to_dict(), indent=2),
        "entrypoints.json": json.dumps(
            [
                {
                    "method_id": ep.method_id,
                    "kind": ep.kind.value,
                    "name": ep.name,
                    "requires_login": ep.requires_login,
                    "side_effect": ep.side_effect,
                    "custom_ui": ep.custom_ui,
                }
                for ep in apk.entrypoints
            ],
            indent=2,
        ),
        "classes.jimple": print_program(apk.program),
    }


def apk_digest(apk: Apk) -> str:
    """Content address of an APK model: the SHA-256 over its canonical
    ``.sapk`` serialisation.  Loading a bundle and re-digesting yields the
    same value, so corpus keys, exported bundles and uploaded bundles all
    land on the same cache entries in the service result store."""
    import hashlib

    contents = bundle_contents(apk)
    h = hashlib.sha256()
    for name in _FILES:
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(contents[name].encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def save_apk(apk: Apk, path: str | Path) -> Path:
    """Write an APK model to a ``.sapk`` directory (or ``.zip`` file)."""
    path = Path(path)
    contents = bundle_contents(apk)
    if path.suffix == ".zip":
        with zipfile.ZipFile(path, "w") as zf:
            for name, text in contents.items():
                zf.writestr(name, text)
    else:
        path.mkdir(parents=True, exist_ok=True)
        for name, text in contents.items():
            (path / name).write_text(text)
    return path


def load_apk(path: str | Path) -> Apk:
    """Load an APK model from a ``.sapk`` directory or zip.

    A path that does not exist raises :class:`FileNotFoundError`; any
    other unreadable or malformed bundle raises :class:`BundleError`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no .sapk bundle at {path}")
    if not (path.is_dir() or path.suffix == ".zip"):
        raise BundleError(f"{path}: a .sapk bundle is a directory or a .zip")
    try:
        if path.is_dir():
            blobs = {name: (path / name).read_bytes() for name in _FILES}
        else:
            with zipfile.ZipFile(path) as zf:
                blobs = {name: zf.read(name) for name in _FILES}
    except (zipfile.BadZipFile, zlib.error) as exc:
        raise BundleError(f"{path}: not a readable zip archive ({exc})") from exc
    except (KeyError, OSError) as exc:
        raise BundleError(f"{path}: cannot read bundle member ({exc})") from exc

    def decode(name, build):
        try:
            return build(blobs[name].decode("utf-8"))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise BundleError(
                f"{path}: malformed {name}: {type(exc).__name__}: {exc}"
            ) from exc

    return Apk(
        manifest=decode(
            "manifest.json", lambda text: Manifest.from_dict(json.loads(text))
        ),
        program=decode("classes.jimple", parse_program),
        resources=decode(
            "resources.json", lambda text: Resources.from_dict(json.loads(text))
        ),
        entrypoints=decode("entrypoints.json", _entrypoints),
    )


def _entrypoints(text: str) -> list[EntryPoint]:
    return [
        EntryPoint(
            method_id=e["method_id"],
            kind=TriggerKind(e.get("kind", "ui")),
            name=e.get("name", ""),
            requires_login=e.get("requires_login", False),
            side_effect=e.get("side_effect", False),
            custom_ui=e.get("custom_ui", False),
        )
        for e in json.loads(text)
    ]


__all__ = ["apk_digest", "bundle_contents", "load_apk", "save_apk"]
