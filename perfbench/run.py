"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The program runs from ``src/`` as it is;
nothing is installed.  Set-up is measured ``SETUPS`` times, each in a fresh
``workload.py`` process, and ``setup_s`` is their median; the last of those
processes goes on to the timed part.  With ``--trace 0`` the result carries
the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics.  The last line of standard output is the result object;
the lines before it give each metric's unit and better-direction and the
host the run measured.  Scratch stores live under ``.bench_work/`` in the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUPS = 3
#: the whole run must end within 180 s; leave room for clean-up
DEADLINE_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(cmd: list[str], env: dict, deadline: float) -> dict:
    """Run one ``workload.py`` process in its own session (so a timeout
    takes its batch workers down with it); returns its last-line JSON."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"timed out after {timeout:.0f}s: {cmd}")
    finally:
        # on a timeout, or when this process is told to stop
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {cmd}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output: {cmd}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # a SIGTERM unwinds through the clean-up below instead of leaving the
    # workload process and its scratch store behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    here = Path(__file__).resolve().parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail("no program to measure: src/repro is missing")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = root / ".bench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else [])
    )
    # one hash layout for every run, so set iteration orders (and the work
    # that depends on them) repeat exactly; the seed changes the inputs only
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    base = [sys.executable, str(here / "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        # set-up time is an end-to-end metric only: a traced run skips
        # the extra set-ups
        for i in range(0 if args.trace else SETUPS - 1):
            child_work = work / f"setup-{i}"
            result = run_child(
                base + ["--work", str(child_work), "--setup-only"],
                env, deadline,
            )
            setups.append(result["setup_s"])
            shutil.rmtree(child_work, ignore_errors=True)
        result = run_child(base + ["--work", str(work / "run")], env,
                           deadline)
    except (RuntimeError, ValueError, KeyError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    setups.append(result["setup_s"])

    measured = dict(result["metrics"], setup_s=statistics.median(setups))
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in measured:
            if not args.trace:
                return fail(f"workload did not report {name}")
            # a layer this workload never calls did no work in it
            measured[name] = 0.0
        metrics[name] = {"value": measured[name], "unit": entry["unit"]}
        print(f"{name:32s} {measured[name]:14.6g} {entry['unit']:8s} "
              f"{entry['better']} is better")
    print(json.dumps({"run": dict(result["run"], setups_s=setups)}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
