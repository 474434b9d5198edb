"""What a process loads (DESIGN.md "Import graph").

A package ``__init__`` imports nothing, and a module imports at top level
only what every caller needs, so an analysis loads neither the dynamic
runtime nor the APK rewriters, and nothing that only hashes maps
OpenSSL's libcrypto.  Each census runs in a fresh interpreter, so nothing
this test session imported counts.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

#: what resolving and analysing corpus apps never runs: the interpreter,
#: stdlib models, UI fuzzers, runtime objects and scripted servers of the
#: dynamic baselines; the ``.sapk`` loader, the obfuscator, deobfuscator
#: and rewriter; the synthesized-app compiler; trace export and fleet
#: telemetry; def-use chains and slice pairing; and OpenSSL's digests
NOT_RUN_BY_ANALYSIS = (
    "repro.runtime.interpreter",
    "repro.runtime.stdlib",
    "repro.runtime.fuzzing",
    "repro.runtime.objects",
    "repro.runtime.server",
    "repro.apk.loader",
    "repro.apk.obfuscator",
    "repro.apk.deobfuscate",
    "repro.apk.rewrite",
    "repro.synth",
    "repro.obs.export",
    "repro.obs.fleet",
    "repro.taint.defuse",
    "repro.deps.pairing",
    "_hashlib",
)


def _loaded_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    script = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_analysing_the_corpus_loads_only_what_runs():
    loaded = _loaded_after(
        "from repro.core.extractocol import Extractocol\n"
        "from repro.corpus import app_keys\n"
        "from repro.service.jobs import resolve_target\n"
        "for key in app_keys():\n"
        "    apk, config, _label = resolve_target(key)\n"
        "    Extractocol(config).analyze(apk)\n"
    )
    assert "repro.core.extractocol" in loaded
    assert sorted(loaded & set(NOT_RUN_BY_ANALYSIS)) == []


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "ted"]])
def test_cli_loads_no_openssl(argv):
    # the command must succeed (``--help`` exits 0 through argparse), so an
    # early exit on a bad argument cannot pass for a lean analysis
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        rc = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        rc = exc.code\n"
        "assert rc == 0, rc\n"
    )
    assert "repro.cli" in loaded
    assert "_hashlib" not in loaded
    if argv[0] == "analyze":
        assert "repro.core.extractocol" in loaded
