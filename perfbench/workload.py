"""One benchmark process: set a workload up, time it, check its outputs.

    python3 perfbench/workload.py --workload NAME --seed N --seconds T \
        --trace 0|1 --work DIR [--setup-only]

``run.py`` starts this script once per set-up it measures; only the last
start goes on past set-up to the timed part.  The last line of standard
output is one JSON object: ``setup_s`` alone with ``--setup-only``,
otherwise the run's counts, metrics and host facts.

Set-up time runs from the first line of this script (before the program is
imported) to the start of the timed part.  The references the outputs are
checked against are computed after the timed part, so they count toward
neither.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostclock  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
BATCH_CLI = HERE / "batch_cli.py"

#: every non-base release of the hand-written corpus lineages, in chain
#: order (v3 re-analyzes against the manifest v2 leaves in the same pass),
#: with the number of statically visible endpoints each adds to v1
CORPUS_RELEASES = {
    "reddinator@v2": 1,
    "reddinator@v3": 1,
    "wallabag@v2": 0,
    "twister@v2": 1,
    "tzm@v2": 0,
}
#: synth families a batch covers; each contributes every cell of its grid,
#: so a seed renames and reorders the apps but does not change which grid
#: cells (and so how much work) the population holds
BATCH_FAMILIES = ("triggers", "hazards", "evolution", "obfuscated", "mega")
#: apps per family; None means the family's whole grid
BATCH_SCALE = None
EVOLUTION_APPS = 45
MIN_OPS = 100
#: host probes taken before and again after set-up, to scale it
SETUP_PROBES = 5


# ------------------------------------------------------------------ helpers
def percentiles(samples: list[float]) -> tuple[float, float]:
    """(p50, p90) of the samples, in the samples' unit."""
    return statistics.median(samples), statistics.quantiles(samples, n=10)[-1]


def population(seed: int) -> list[str]:
    """The batch workloads' population specs for ``seed``."""
    from repro.synth import get_family

    return [
        f"synth:{fam}*{BATCH_SCALE or get_family(fam).grid_size}@{seed}"
        for fam in BATCH_FAMILIES
    ]


def synth_truth(key: str) -> tuple[int, int]:
    """(identified, unidentified) endpoint counts the generator promises
    for a synthesized app."""
    from repro.synth import synth_spec

    truth = synth_spec(key).truth
    return (
        truth.count(visible_to="static"),
        sum(1 for ep in truth.endpoints if not ep.static_visible),
    )


def report_counts(report: dict) -> tuple[int, int]:
    return len(report["transactions"]), len(report["unidentified"])


def snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """{path: (size, mtime_ns)} of every file under ``root``."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            try:
                st = os.stat(path)
            except FileNotFoundError:
                continue
            out[path] = (st.st_size, st.st_mtime_ns)
    return out


def written(before: dict, after: dict) -> tuple[int, int]:
    """(files, bytes) created or changed between two snapshots."""
    files = size = 0
    for path, (nbytes, mtime) in after.items():
        old = before.get(path)
        if old is None:
            files += 1
            size += nbytes
        elif old != (nbytes, mtime):
            files += 1
            size += max(0, nbytes - old[0])
    return files, size


def store_filesystem(path: Path) -> str:
    try:
        out = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def analysis_counts(reports: list) -> dict[str, float]:
    """Exact-repeat counts summed over one pass of analysis reports."""
    totals = {name: 0 for name in (
        "demarcation_points", "taint_stmts", "taint_worklist_iterations",
        "methods_evaluated", "transactions",
    )}
    incr = {"reused": 0, "reanalyzed": 0, "dirty_methods": 0}
    for report in reports:
        counters = report.phase_stats.counters
        for name in totals:
            totals[name] += counters.get(name, 0)
        for name, amount in (report.phase_stats.incremental or {}).items():
            incr[name] = incr.get(name, 0) + amount
    replayed = incr["reused"] + incr["reanalyzed"]
    return {
        "slicing.demarcation_points": totals["demarcation_points"],
        "taint.stmts": totals["taint_stmts"],
        "taint.worklist_iterations": totals["taint_worklist_iterations"],
        "signature.methods_evaluated": totals["methods_evaluated"],
        "deps.transactions": totals["transactions"],
        "slicing.slice_fraction": (
            statistics.fmean(r.slice_fraction for r in reports)
            if reports else 0.0
        ),
        "incr.reused": incr["reused"],
        "incr.reanalyzed": incr["reanalyzed"],
        "incr.dirty_methods": incr["dirty_methods"],
        "incr.reuse_fraction": incr["reused"] / replayed if replayed else 0.0,
    }


class Outcome:
    """Ops attempted and failed, per-op latencies and timed wall seconds,
    each both as measured and scaled to the reference host speed (see
    ``hostclock``)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.probes: list[float] = []
        self.passes = 0
        self.peak_rss_kb = 0

    def apps_per_s(self) -> float:
        return len(self.scaled) / sum(self.scaled) if self.scaled else 0.0

    def facts(self) -> dict:
        """What the run measured before scaling, for the record."""
        p50, p90 = percentiles(self.latencies)
        return {
            "passes": self.passes,
            "timed_s": self.wall,
            "latency_samples": len(self.latencies),
            "raw_apps_per_s": self.attempted / self.wall if self.wall else 0,
            "raw_app_p50_ms": p50 * 1000,
            "raw_app_p90_ms": p90 * 1000,
            "probe_ms_median": statistics.median(self.probes) * 1000,
        }


# ------------------------------------------------------------ in-process ops
class AnalysisWorkload:
    """Shared loop of the two in-process workloads: passes over a fixed op
    list, each op one ``Extractocol.analyze`` call timed on its own."""

    functions = layers.ANALYSIS_FUNCTIONS
    methods = layers.ANALYSIS_METHODS
    #: the batch variant whose layers this workload's traced run also
    #: measures (see ``BatchLayers``)
    companion = None

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.rng = random.Random(seed)

    def timed(self, seconds: float) -> Outcome:
        """Run whole passes until ``seconds`` have gone by, and at least
        enough passes for ``MIN_OPS`` ops.  A host probe follows every op,
        outside its timed interval.  The first pass's reports are kept as
        ``first_reports``."""
        out = Outcome()
        self.first_reports = None
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or out.attempted < MIN_OPS:
            reports = self.one_pass(out)
            if self.first_reports is None:
                self.first_reports = reports
            out.passes += 1
        out.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.wall = sum(out.latencies)
        out.scaled = hostclock.scale_each(out.latencies, out.probes)
        return out

    def one_pass(self, out: Outcome) -> list:
        self.before_pass()
        results = []
        for op in self.pass_order():
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                report = self.run_op(op)
            except Exception as exc:  # an op that raises is a failed op
                out.failed += 1
                print(f"op {op} raised {exc!r}", file=sys.stderr)
            else:
                results.append((op, report))
            out.latencies.append(time.perf_counter() - t0)
            out.probes.append(hostclock.probe())
        out.failed += self.check_pass(results)
        return [report for _op, report in results]

    def traced(self, seconds: float) -> dict:
        """Untraced passes for half the time, traced passes for the other
        half; per-layer self times come from the traced half.  Then the
        batch variant named by ``companion`` adds its layers."""
        plain = self.timed(seconds / 2)
        recorder = layers.Recorder()
        with layers.install(recorder, self.functions, self.methods):
            traced = self.timed(seconds / 2)
        reduction = recorder.reduce()
        metrics = analysis_counts(self.first_reports)
        metrics.update(self.layer_times(reduction))
        metrics["trace.overhead"] = traced.apps_per_s() / plain.apps_per_s()
        metrics["trace.attributed_fraction"] = reduction.attributed_fraction
        metrics["trace.p10_op_attributed"] = reduction.p10_op_attributed
        metrics[f"{self.name}.other_ms"] = reduction.other_ms
        outcomes = [plain, traced]
        if self.companion:
            batch = BATCH_LAYERS[self.companion](
                self.seed, self.work / self.companion
            )
            batch.setup()
            batch_metrics, batch_out = batch.traced(seconds)
            outcomes.append(batch_out)
            # the analysis keeps its own figures for a layer both measure
            for name, value in batch_metrics.items():
                if not metrics.get(name):
                    metrics[name] = value
        return (metrics, *outcomes)

    def layer_times(self, reduction) -> dict[str, float]:
        return {
            "cfg.callgraph_ms": reduction.per_op_ms("cfg.callgraph"),
            "semantics.async_ms": reduction.per_op_ms("semantics.async"),
            "perf.index_ms": reduction.per_op_ms("perf.index"),
            "slicing.scan_ms": reduction.per_op_ms("slicing.scan"),
            "signature.run_ms": reduction.per_op_ms("signature.run"),
            "deps.infer_ms": reduction.per_op_ms("deps.infer"),
            "deps.assemble_ms": reduction.per_op_ms("deps.assemble"),
            "ir.fingerprint_ms": reduction.per_op_ms("ir.fingerprint"),
            "incr.manifest_read_ms": reduction.per_op_ms("incr.manifest_read"),
            "incr.plan_ms": reduction.per_op_ms("incr.plan"),
            "incr.manifest_write_ms": reduction.per_op_ms("incr.manifest_write"),
            "apk.digest_ms": reduction.per_op_ms("apk.digest"),
        }

    def before_pass(self) -> None:
        pass


class CorpusAnalyze(AnalysisWorkload):
    """``Extractocol(config).analyze(apk)`` over the 34 hand-written apps,
    in a seed-shuffled order each pass."""

    name = "corpus-analyze"
    companion = "synth-rebatch"

    def setup(self) -> None:
        from repro.core.extractocol import Extractocol
        from repro.corpus import app_keys
        from repro.service.jobs import resolve_target

        self.Extractocol = Extractocol
        self.items = {key: resolve_target(key)[:2] for key in app_keys()}
        self.run_op(next(iter(self.items)))  # discarded warm-up op

    def pass_order(self) -> list[str]:
        keys = sorted(self.items)
        self.rng.shuffle(keys)
        return keys

    def run_op(self, key: str):
        apk, config = self.items[key]
        return self.Extractocol(config).analyze(apk)

    def check_pass(self, results) -> int:
        return sum(
            1 for key, report in results
            if len(report.transactions) != self.expected(key)
        )

    def expected(self, key: str) -> int:
        from repro.corpus import get_spec

        return get_spec(key).truth.count(visible_to="static")

    def layer_times(self, reduction) -> dict[str, float]:
        out = super().layer_times(reduction)
        out["slicing.slice_ms"] = reduction.per_op_ms("slicing.slice")
        out["slicing.reslice_ms"] = 0.0
        return out


class ReleaseReanalyze(AnalysisWorkload):
    """Every non-base lineage release analyzed with ``mode="incremental"``
    against a store holding its predecessor's manifest; the store's
    manifests are restored, untimed, before every pass."""

    name = "release-reanalyze"
    companion = "synth-batch"

    def labels(self) -> list[str]:
        from repro.synth import parse_population, synth_lineage

        out = list(CORPUS_RELEASES)
        spec = f"synth:evolution*{EVOLUTION_APPS}@{self.seed}"
        for key in parse_population(spec).keys():
            out.extend(lv.label for lv in synth_lineage(key)[1:])
        return out

    def setup(self) -> None:
        from repro.core.extractocol import Extractocol
        from repro.corpus.lineage import build_version
        from repro.service.store import ResultStore

        self.Extractocol = Extractocol
        self.store = ResultStore(self.work / "release-store")
        self.built = {}
        for label in self.labels():
            built = build_version(label)
            built.config.mode = "incremental"
            self.built[label] = built
            family, _, version = label.partition("@")
            if version == "v2":
                base = build_version(f"{family}@v1")
                Extractocol(base.config, store=self.store).analyze(base.apk)
        self.pristine = self.work / "release-manifests"
        shutil.copytree(self.store.manifests, self.pristine)
        self.run_op(next(iter(self.built)))  # discarded warm-up op
        self.references = None

    def before_pass(self) -> None:
        shutil.rmtree(self.store.manifests)
        shutil.copytree(self.pristine, self.store.manifests)

    def pass_order(self) -> list[str]:
        return list(self.built)

    def run_op(self, label: str):
        built = self.built[label]
        return self.Extractocol(built.config, store=self.store).analyze(
            built.apk, renames=built.renames_from_base
        )

    def reference(self) -> dict[str, tuple[str, int]]:
        """Per release: the canonical full-mode report and the identified
        count the lineage's edits imply."""
        if self.references is None:
            from dataclasses import replace

            from repro.core.report import report_to_dict

            self.references = {}
            for label, built in self.built.items():
                full = self.Extractocol(
                    replace(built.config, mode="full")
                ).analyze(built.apk)
                self.references[label] = (
                    json.dumps(report_to_dict(full), sort_keys=True),
                    self.expected(label),
                )
        return self.references

    def expected(self, label: str) -> int:
        from repro.corpus import get_spec
        from repro.synth import (
            get_family, grid_point, normalize_coords, parse_app_key,
        )

        family, _, _ = label.partition("@")
        if family in {lab.partition("@")[0] for lab in CORPUS_RELEASES}:
            base = get_spec(family).truth.count(visible_to="static")
            return base + CORPUS_RELEASES[label]
        fam, seed, index = parse_app_key(family)
        mutation = normalize_coords(
            grid_point(get_family(fam), seed, index)
        ).get("mutation")
        return synth_truth(family)[0] + (mutation == "add_endpoint")

    def check_pass(self, results) -> int:
        from repro.core.report import report_to_dict

        refs = self.reference()
        failed = 0
        for label, report in results:
            canonical, identified = refs[label]
            if (
                json.dumps(report_to_dict(report), sort_keys=True) != canonical
                or len(report.transactions) != identified
            ):
                failed += 1
        return failed

    def layer_times(self, reduction) -> dict[str, float]:
        out = super().layer_times(reduction)
        out["slicing.slice_ms"] = 0.0
        out["slicing.reslice_ms"] = reduction.per_op_ms("slicing.slice")
        return out


# ------------------------------------------------------------ batch layers
class BatchLayers:
    """The layers of ``repro batch`` over the whole grids of
    ``BATCH_FAMILIES``, for a traced run only.  A batch is not an
    end-to-end workload here: its process sharding puts two workers and a
    coordinator on two CPUs whose speeds change independently, second by
    second, and no probe tracked that well enough to make a batch's
    figures steady (see README.md).  Whole CLI batches give the counts and
    the coordinator-side layers; the per-target layers come from replaying
    each entry's chain in this process."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.specs = population(seed)
        self.env = dict(os.environ)
        self.runs = 0
        self.truth = None

    def setup(self) -> None:
        from repro.service.store import ResultStore
        from repro.synth import expand_targets

        self.targets = expand_targets(self.specs)
        self.root = self.work / "store"
        self.store = ResultStore(self.root)
        if self.filled:
            self.cli(self.root, self.pass_args())
            self.entries = len(self.store.entries())

    def before_pass(self) -> None:
        if not self.filled:
            shutil.rmtree(self.root, ignore_errors=True)

    def entry_ok(self, target: str, hit: bool, report) -> bool:
        """Right cache outcome, and the report's counts (a stored dict or a
        fresh ``AnalysisReport``) equal the generator's truth."""
        from repro.core.report import report_to_dict

        if not isinstance(report, dict):
            report = report_to_dict(report)
        return hit == self.filled and (
            report_counts(report) == self.expected()[target]
        )

    def cli(self, store: Path, targets: list[str], *extra: str):
        """One ``repro batch`` process; returns (wall seconds, result)."""
        self.runs += 1
        out = self.work / f"batch-{self.runs}.json"
        cmd = [sys.executable, str(BATCH_CLI), str(out), "--store", str(store),
               *targets, *extra]
        t0 = time.perf_counter()
        subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                       check=True, timeout=170)
        wall = time.perf_counter() - t0
        result = json.loads(out.read_text())
        out.unlink()
        return wall, result

    def pass_args(self) -> list[str]:
        return list(self.specs)

    def expected(self) -> dict[str, tuple[int, int]]:
        if self.truth is None:
            self.truth = {key: synth_truth(key) for key in self.targets}
        return self.truth

    def check_batch(self, result: dict) -> int:
        """Failed entries of one CLI batch: not done, wrong cache outcome,
        or a stored report whose counts disagree with the generator's
        truth.  On a filled store, a batch that ran an analysis or added an
        entry fails as a whole."""
        store = self.store
        output = result["output"]
        if self.filled and (
            output["analyses_run"] != 0
            or len(store.entries()) != self.entries
        ):
            return len(output["jobs"])
        failed = 0
        for record in output["jobs"]:
            envelope = (
                store.load(record["result_key"])
                if record.get("result_key") else None
            )
            if (
                record["status"] != "done"
                or envelope is None
                or not self.entry_ok(
                    record["target"], record["cache_hit"], envelope["report"]
                )
            ):
                failed += 1
        return failed

    def traced(self, seconds: float):
        """Whole CLI batches, untraced in their own processes, give the
        counts and the coordinator-side layers; the per-target layers are
        split by replaying every entry's chain here, once plain and once
        traced."""
        from repro.obs.fleet import write_fleet_trace
        from repro.obs.ledger import RunLedger, RunRecord

        self.before_pass()
        before = snapshot(self.root)
        wall, result = self.cli(self.root, self.pass_args())
        files, nbytes = written(before, snapshot(self.root))
        output = result["output"]
        failed = self.check_batch(result)
        records = output["jobs"]
        metrics = {
            "batch.cache_hits": output["cache_hits"],
            "batch.analyses_run": output["analyses_run"],
            "shard.work_steals": sum(1 for r in records if r.get("stolen")),
            "store.files_written": files,
            "store.bytes_written": nbytes,
        }
        metrics["corpus.registry_s"] = self.registry_s()
        t0 = time.perf_counter()
        write_fleet_trace(output["telemetry_dir"])
        metrics["obs.fleet_merge_s"] = time.perf_counter() - t0
        ledger = RunLedger(self.work / "ledger")
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            ledger.append(RunRecord.from_batch(
                run_id=output["run_id"], label=" ".join(self.specs),
                records=records, started_unix=time.time(),
                wall_s=result["main_s"],
            ))
            samples.append(time.perf_counter() - t0)
        metrics["obs.ledger_append_ms"] = statistics.median(samples) * 1000

        # telemetry cost: batch wall with telemetry and ledger over wall
        # without, alternating so drift in the host hits both sides
        loud = [result["main_s"]]
        quiet = []
        for flags in (("--no-telemetry", "--no-ledger"), (),
                      ("--no-telemetry", "--no-ledger")):
            self.before_pass()
            _wall, other = self.cli(self.root, self.pass_args(), *flags)
            failed += self.check_batch(other)
            (quiet if flags else loud).append(other["main_s"])
        metrics["obs.telemetry_overhead"] = sum(loud) / sum(quiet)

        plain_s, _ = self.replay(None)
        recorder = layers.Recorder()
        functions, methods = layers.traced_chain_names()
        with layers.install(recorder, functions, methods):
            traced_s, replay_failed = self.replay(recorder)
        failed += replay_failed
        reduction = recorder.reduce()
        for name in ("synth.build", "apk.digest", "core.cache_key",
                     "store.get", "store.put", "store.lease",
                     "fleetindex.delta", "core.analyze"):
            metrics[f"{name}_ms"] = reduction.per_op_ms(name)
        workers = len({r["worker"] for r in records}) or 1
        attributed = reduction.op_s - reduction.op_self_s
        metrics["shard.overhead_s"] = result["main_s"] - attributed / workers
        metrics["trace.overhead"] = plain_s / traced_s
        metrics["trace.attributed_fraction"] = reduction.attributed_fraction
        metrics["trace.p10_op_attributed"] = reduction.p10_op_attributed
        metrics[f"{self.name}.other_ms"] = reduction.other_ms
        shutil.rmtree(self.work / "replay-store", ignore_errors=True)

        out = Outcome()
        out.attempted = len(records) * 4 + len(self.targets) * 2
        out.failed = failed
        out.wall = wall
        out.passes = 4
        return metrics, out

    def registry_s(self) -> float:
        """Seconds ``corpus.app_keys()`` takes in a fresh interpreter, as in
        the coordinator of every ``repro batch`` (this process has built
        the registry already); the median of three."""
        code = (
            "import time; from repro.corpus import app_keys; "
            "t = time.perf_counter(); app_keys(); "
            "print(time.perf_counter() - t)"
        )
        return statistics.median(
            float(subprocess.run(
                [sys.executable, "-c", code], env=self.env, check=True,
                capture_output=True, text=True, timeout=60,
            ).stdout)
            for _ in range(3)
        )

    def replay(self, recorder):
        """Every target's chain in this process, against a replay store laid
        out like the pass's; returns (seconds, failed entries)."""
        from repro.service.store import ResultStore

        root = self.work / "replay-store"
        shutil.rmtree(root, ignore_errors=True)
        if self.filled:
            shutil.copytree(self.root / "objects", root / "objects")
        store = ResultStore(root)
        results = []
        t0 = time.perf_counter()
        for index, target in enumerate(self.targets):
            if recorder is None:
                hit, report = layers.replay_chain(store, index, target, "r")
            else:
                with recorder.span("op"):
                    hit, report = layers.replay_chain(
                        store, index, target, "r"
                    )
            results.append((target, hit, report))
        elapsed = time.perf_counter() - t0
        return elapsed, sum(1 for r in results if not self.entry_ok(*r))


class SynthBatch(BatchLayers):
    """Cold batches: every batch starts from an empty store."""

    name = "synth-batch"
    filled = False


class SynthRebatch(BatchLayers):
    """Warm batches against the store an untimed cold batch filled in
    set-up: every entry is a cache hit."""

    name = "synth-rebatch"
    filled = True


WORKLOADS = {cls.name: cls for cls in (CorpusAnalyze, ReleaseReanalyze)}
BATCH_LAYERS = {cls.name: cls for cls in (SynthBatch, SynthRebatch)}


# ------------------------------------------------------------------ main
def host_facts(work: Path) -> dict:
    from repro.perf.parallel import usable_cpus

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "store_fs": store_filesystem(work),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    # set-up is scaled like every other time, by probes on either side
    # of it; the probes' own time is left out
    probe_t0 = time.perf_counter()
    probes = [hostclock.probe() for _ in range(SETUP_PROBES)]
    probing_s = time.perf_counter() - probe_t0
    workload.setup()
    setup_s = time.perf_counter() - STARTED - probing_s
    probes += [hostclock.probe() for _ in range(SETUP_PROBES)]
    setup_s *= hostclock.factor(statistics.median(probes))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gc.collect()
    if args.trace:
        metrics, *outcomes = workload.traced(args.seconds)
        out = outcomes[0]
        for extra in outcomes[1:]:
            out.attempted += extra.attempted
            out.failed += extra.failed
    else:
        out = workload.timed(args.seconds)
        p50, p90 = percentiles(out.scaled)
        metrics = {
            "apps_per_s": out.apps_per_s(),
            "app_p50_ms": p50 * 1000,
            "app_p90_ms": p90 * 1000,
            "peak_rss_mb": out.peak_rss_kb / 1024,
        }
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
        "run": dict(
            host_facts(work),
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            **(out.facts() if out.probes else {"passes": out.passes}),
        ),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
