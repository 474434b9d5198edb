"""Run one ``repro batch`` invocation in a fresh interpreter and time it.

    python3 perfbench/batch_cli.py OUT.json [repro batch arguments...]

The batch goes through ``repro.cli.main(["batch", ..., "--json"])``, so
every default of the CLI applies (process sharding with one worker per
usable CPU, telemetry and ledger on unless the arguments turn them off).
OUT.json receives the CLI's exit code, its JSON output and the wall time of
``main``, which leaves out interpreter start-up and imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["batch", *cli_args, "--json"])
    main_s = time.perf_counter() - t0
    with open(out_path, "w") as fh:
        json.dump({
            "rc": rc,
            "main_s": main_s,
            "output": json.loads(buf.getvalue()),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
