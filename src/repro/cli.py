"""Command-line interface.

::

    python -m repro corpus                      # list corpus apps + lineages
    python -m repro corpus synth --families all --scale 500 --seed 7
    python -m repro analyze syn-transports-s7-0041   # a synthesized app
    python -m repro analyze diode               # analyze a corpus app
    python -m repro analyze path/to/app.sapk    # analyze an .sapk bundle
    python -m repro analyze diode --trace t.jsonl   # + emit a pipeline trace
    python -m repro lint                        # lint the whole corpus
    python -m repro lint diode --json           # lint one app, JSON findings
    python -m repro trace diode --flame         # trace as collapsed stacks
    python -m repro explain radioreddit 1 uri   # taint provenance of a field
    python -m repro fuzz diode --mode manual    # run a fuzzing baseline
    python -m repro export diode out.sapk       # save a corpus app to disk
    python -m repro diff reddinator@v1 reddinator@v3   # protocol drift
    python -m repro diff --latest diode         # last two stored versions
    python -m repro eval table1|table2|figures|casestudies|drift
    python -m repro batch                       # whole corpus via the batch engine
    python -m repro batch ted kayak --workers 4 # selected targets
    python -m repro batch --corpus synth:transports*100 --progress
    python -m repro runs list                   # run-ledger history
    python -m repro runs show <run-id>          # one run, with failures
    python -m repro trace --from fleet.trace.jsonl --flame
    python -m repro serve --port 8425           # HTTP analysis service
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn


def _fail(message: str) -> NoReturn:
    """Reject bad input: one line on stderr, exit status 2 (argparse's
    usage-error code).  Status 1 stays a verdict: a breaking ``diff``,
    new ``lint`` errors."""
    print(f"repro: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load(target: str):
    """Resolve a target into ``(Apk, AnalysisConfig)``."""
    apk, config, _renames = _load_versioned(target)
    return apk, config


def _load_versioned(target: str):
    """Resolve a target as :func:`repro.service.jobs.resolve_target` does
    (corpus or ``syn-`` key, lineage label ``app@vN``, ``.sapk`` path)
    into ``(Apk, AnalysisConfig, renames_from_base)``: the rename map of a
    lineage version, which incremental mode threads through for
    obfuscated re-releases, is ``None`` for every other target form."""
    from repro.apk.model import BundleError
    from repro.corpus.lineage import build_version, is_version_label
    from repro.service.jobs import lookup_message, resolve_target

    try:
        if is_version_label(target):
            built = build_version(target)
            return built.apk, built.config, built.renames_from_base
        apk, config, _label = resolve_target(target)
    except (LookupError, BundleError) as exc:
        _fail(lookup_message(exc))
    return apk, config, None


def _analyze(engine, apk, target: str, renames=None):
    """``engine.analyze(apk)``, where a branch to a label its body never
    defines (lint rule IR002) is bad input: exit 2 naming ``target``."""
    from repro.ir.method import UndefinedLabel

    try:
        return engine.analyze(apk, renames=renames)
    except UndefinedLabel as exc:
        _fail(f"{target}: {exc}")


def cmd_corpus(args) -> int:
    from repro.corpus import app_keys, registry
    from repro.corpus.lineage import lineage_keys, lineages

    for key in app_keys(args.kind):
        app = registry()[key]
        print(f"{key:16s} {app.kind:6s} {app.protocol:8s} {app.name}")
        # lineage versions are analyzable/diffable targets too — list the
        # app@vN labels build_version() accepts right under their app
        if key in lineage_keys():
            for version in lineages()[key]:
                print(f"  {version.label:14s} {'':6s} {'':8s} "
                      f"{version.description}")
    if getattr(args, "synth", None):
        from repro.synth import parse_population, synth_genapp, synth_lineage

        pop = parse_population(args.synth)
        print()
        print(f"synthesized population {pop.spec}:")
        for syn_key in pop.keys():
            gen = synth_genapp(syn_key)
            labels = " ".join(v.label.split("@")[1]
                              for v in synth_lineage(syn_key))
            print(f"{syn_key:28s} {gen.kind:6s} {gen.protocol:8s} "
                  f"{gen.name} [{labels}]")
    return 0


def cmd_corpus_synth(args) -> int:
    """Compile a synthesized population: summary, manifest, or exported
    ``.sapk`` bundles."""
    from repro.synth import (
        PopulationSpec,
        parse_population,
        population_manifest,
        resolve_families,
    )

    if args.spec:
        pop = parse_population(args.spec)
    else:
        families = tuple(f.name for f in resolve_families(args.families))
        pop = PopulationSpec(families=families, scale=args.scale,
                             seed=args.seed)
    manifest = population_manifest(pop)

    if args.export:
        from repro.apk.loader import save_apk
        from repro.corpus import build_app

        out_dir = Path(args.export)
        out_dir.mkdir(parents=True, exist_ok=True)
        for app in manifest["apps"]:
            save_apk(build_app(app["key"]), out_dir / f"{app['key']}.sapk")
        print(f"exported {manifest['totals']['apps']} bundles to {out_dir}",
              file=sys.stderr)

    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0

    header = (
        f"{'family':12s} {'apps':>6s} {'grid':>6s} {'endpoints':>10s} "
        f"{'truth':>6s} {'versions':>9s}"
    )
    print(f"population {pop.spec}")
    print()
    print(header)
    print("-" * len(header))
    by_family: dict[str, list[dict]] = {}
    for app in manifest["apps"]:
        by_family.setdefault(app["family"], []).append(app)
    from repro.synth import get_family

    for family, apps in by_family.items():
        print(f"{family:12s} {len(apps):>6d} "
              f"{get_family(family).grid_size:>6d} "
              f"{sum(a['endpoints'] for a in apps):>10d} "
              f"{sum(a['truth']['total'] for a in apps):>6d} "
              f"{sum(len(a['versions']) for a in apps):>9d}")
    totals = manifest["totals"]
    print("-" * len(header))
    print(f"{'total':12s} {totals['apps']:>6d} {'':>6s} "
          f"{totals['endpoints']:>10d} {totals['truth_endpoints']:>6d} "
          f"{totals['lineage_versions']:>9d}")
    print()
    print(f"population digest: {manifest['digest']}")
    return 0


def cmd_analyze(args) -> int:
    from repro import Extractocol
    from repro.core.report import report_to_dict
    from repro.obs.tracer import NULL_SPAN, Span

    apk, config, renames = _load_versioned(args.target)
    if args.async_heuristic is not None:
        config.async_heuristic = args.async_heuristic
    config.mode = args.mode
    store = None
    if args.store:
        from repro.service.store import ResultStore

        store = ResultStore(Path(args.store).expanduser())
    root = Span("repro") if args.trace else NULL_SPAN
    import time as _time

    started_unix = _time.time()
    engine = Extractocol(config, span=root, store=store)
    report = _analyze(engine, apk, args.target, renames)
    stats = report.phase_stats
    if stats.incremental is not None:
        i = stats.incremental
        print(
            f"incremental: reused={i['reused']} "
            f"reanalyzed={i['reanalyzed']} "
            f"dirty_methods={i['dirty_methods']}",
            file=sys.stderr,
        )
    if args.trace:
        from repro.obs.export import write_jsonl

        write_jsonl(root, args.trace, timings=args.trace_timings)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.ledger:
        from repro.obs.ledger import RunLedger, RunRecord, new_run_id

        run_id = new_run_id()
        record = RunRecord.from_batch(
            run_id=run_id,
            label=args.target,
            records=[{
                "target": args.target,
                "status": "done",
                "seconds": report.analysis_seconds,
                "phase_seconds": dict(stats.seconds),
                "counters": {"analyses_run": 1},
            }],
            started_unix=started_unix,
            wall_s=round(report.analysis_seconds, 4),
            executor="serial",
            workers=1,
        )
        record.kind = "analyze"
        RunLedger(Path(args.ledger).expanduser()).append(record)
        print(f"run {run_id} recorded in {args.ledger}", file=sys.stderr)
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
        return 0
    print(report.summary())
    print()
    for txn in report.transactions:
        print(f"#{txn.txn_id}")
        print("  " + txn.describe().replace("\n", "\n  "))
    for txn in report.unidentified:
        print(f"#{txn.txn_id} [unidentified] {txn.request.method} "
              f"{txn.request.uri_regex}")
    return 0


def cmd_lint(args) -> int:
    """Run the static lint suite (``repro.lint``) over one app, several
    apps, or the whole corpus; exit non-zero on error-severity findings
    not covered by the baseline."""
    from repro.corpus import app_keys
    from repro.lint.diagnostics import Severity, findings_to_jsonl
    from repro.lint.runner import Baseline, lint_apk

    targets = list(args.targets)
    if args.corpus:
        from repro.synth import parse_population

        targets.extend(parse_population(args.corpus).keys())
    if args.all or not targets:
        # --all adds the corpus apps; named targets and the population stay
        targets = list(dict.fromkeys(app_keys() + targets))

    baseline = None
    if args.baseline and Path(args.baseline).exists():
        baseline = Baseline.load(args.baseline)

    reports = []
    all_findings = []
    for target in targets:
        apk, config = _load(target)
        report = None
        slicing = None
        if args.analyze:
            from repro import Extractocol
            from repro.ir.method import UndefinedLabel

            engine = Extractocol(config)
            try:
                report = engine.analyze(apk)
                slicing = engine.last_slicing
            except UndefinedLabel:
                pass  # no analysis to lint; the IR pass reports it (IR002)
        lint = lint_apk(apk, report=report, slicing=slicing)
        reports.append((target, lint))
        all_findings.extend(lint.findings)

    if args.write_baseline:
        Baseline.from_findings(all_findings).save(args.write_baseline)
        print(
            f"baseline with {len(all_findings)} finding(s) written to "
            f"{args.write_baseline}",
            file=sys.stderr,
        )
        return 0

    new_errors = [f for f in all_findings if f.severity == Severity.ERROR]
    if baseline is not None:
        new_errors = baseline.new_findings(new_errors)

    if args.json:
        payload = {
            "apps": [
                dict(lint.to_dict(), target=target) for target, lint in reports
            ],
            "totals": {
                "apps": len(reports),
                "findings": len(all_findings),
                "errors": sum(
                    1 for f in all_findings if f.severity == Severity.ERROR
                ),
                "new_errors": len(new_errors),
            },
        }
        print(json.dumps(payload, indent=2))
    elif args.jsonl:
        sys.stdout.write(findings_to_jsonl(all_findings))
    else:
        for target, lint in reports:
            counts = lint.counts()
            shown = ", ".join(
                f"{counts[s]} {s}" for s in ("error", "warning", "info") if counts[s]
            )
            print(f"{target:16s} {shown or 'clean'}")
            for f in lint.findings:
                print(f"  {f}")
        suffix = " (all covered by baseline)" if baseline and not new_errors else ""
        total_err = sum(1 for f in all_findings if f.severity == Severity.ERROR)
        print(
            f"{len(reports)} app(s): {len(all_findings)} finding(s), "
            f"{total_err} error(s){suffix}"
        )
    return 1 if new_errors else 0


def cmd_trace(args) -> int:
    """Run one traced analysis and print/write the trace (JSONL by
    default, collapsed flamegraph stacks with ``--flame``), or render an
    existing trace file — e.g. a batch's merged ``fleet.trace.jsonl`` —
    with ``--from``.  A flame graph of a file needs its timings: one
    whose spans carry no ``seconds`` (the fleet trace drops them to stay
    byte-deterministic) is refused rather than drawn with every frame at
    0 µs."""
    from repro.obs.export import (
        collapsed_stacks,
        events_to_span,
        to_jsonl,
        validate_jsonl,
    )

    if args.from_file:
        try:
            events = validate_jsonl(Path(args.from_file).read_text())
        except (OSError, ValueError) as exc:
            _fail(f"{args.from_file}: {exc}")
        if args.flame and not any("seconds" in e for e in events):
            _fail(
                f"{args.from_file}: no span carries seconds, so a flame "
                f"graph would read 0 us in every frame; a batch's timed "
                f"spans are in telemetry/<run_id>/worker-<n>.trace.jsonl"
            )
        root = events_to_span(events)
    else:
        if not args.target:
            _fail("trace needs a target (or --from FILE)")
        from repro import Extractocol
        from repro.obs.tracer import Span

        apk, config = _load(args.target)
        root = Span("repro")
        _analyze(Extractocol(config, span=root), apk, args.target)
    if args.flame:
        text = collapsed_stacks(root)
    else:
        text = to_jsonl(root, timings=args.timings)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_explain(args) -> int:
    """Explain where a signature field comes from: the chain of concrete
    statements from the producing constant to the demarcation point."""
    from repro.ir.method import UndefinedLabel
    from repro.obs.provenance import explain
    from repro.service.jobs import lookup_message

    apk, config = _load(args.target)
    try:
        result = explain(apk, config, request=args.request, field=args.field)
    except UndefinedLabel as exc:
        _fail(f"{args.target}: {exc}")
    except LookupError as exc:
        _fail(lookup_message(exc))
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.describe())
    return 0


def cmd_fuzz(args) -> int:
    from repro.corpus import build_app, get_genapp
    from repro.corpus.generator import build_network_for
    from repro.runtime.fuzzing import AutoUiFuzzer, ManualUiFuzzer
    from repro.service.jobs import lookup_message

    try:
        app = get_genapp(args.target)
    except LookupError as exc:
        # fuzzing drives the app's generated network model, so only a
        # corpus or synthesized key names a fuzzable app
        _fail(lookup_message(exc))
    fuzzer = ManualUiFuzzer() if args.mode == "manual" else AutoUiFuzzer()
    result = fuzzer.fuzz(build_app(args.target), build_network_for(app))
    print(f"{args.mode} fuzzing of {app.name}: {len(result.trace)} transactions")
    for captured in result.trace:
        print(f"  {captured}")
    for name, reason in result.skipped:
        print(f"  [skipped] {name}: {reason}")
    return 0


def cmd_export(args) -> int:
    from repro.apk.loader import save_apk

    apk, _config = _load(args.target)
    path = save_apk(apk, args.output)
    print(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    what = args.what
    if what == "table1":
        from repro.evalx.table1 import render_table1

        print(render_table1())
    elif what == "table2":
        from repro.evalx.table2 import render_table2

        print(render_table2())
    elif what == "figures":
        from repro.evalx.figures import render_figures

        print(render_figures("open"))
        print(render_figures("closed"))
    elif what == "casestudies":
        from repro.evalx.casestudy import (
            render_table4,
            render_table5,
            render_table6,
            table3,
        )

        print(table3())
        print()
        print(render_table4())
        print()
        print(render_table5())
        print()
        print(render_table6())
    elif what == "drift":
        from repro.evalx.drift import render_drift_table

        # hand-written lineages always; a synthesized population's known-
        # drift lineages ride along when --corpus / $REPRO_CORPUS is set
        print(render_drift_table(args.corpus))
    elif what == "synth":
        from repro.evalx.syntheval import render_synth_table

        print(render_synth_table(args.corpus or "synth:all*35@7"))
    if args.verbose:
        from repro.evalx.runner import render_phase_table

        # phase-timing profile of every app the render above evaluated —
        # served from the evaluation cache, no re-analysis
        print()
        print(render_phase_table())
    return 0


def cmd_diff(args) -> int:
    """Protocol-evolution analysis between two app versions.

    Exit code contract (for CI gates): ``1`` when the diff contains a
    breaking change, ``0`` otherwise — including the self-diff and pure
    additions.  An unresolvable target or a malformed bundle exits 2.
    """
    from repro.apk.model import BundleError
    from repro.diff.engine import diff_targets
    from repro.diff.model import render_markdown
    from repro.service.jobs import lookup_message
    from repro.service.store import ResultStore, canonical_json

    if not args.latest and not (args.old and args.new):
        _fail("need two targets (or --latest APP)")
    store = None
    store_path = Path(args.store or _default_store()).expanduser()
    # an explicit --store is opened, and created if missing; the default
    # store only when it already exists
    if args.store or args.latest or (store_path / "objects").exists():
        store = ResultStore(store_path)

    if args.latest:
        entries = [
            e for e in store.list_entries() if e["app"] == args.latest
        ]
        if len(entries) < 2:
            _fail(
                f"store has {len(entries)} report(s) for {args.latest!r}; "
                f"need at least two versions to diff "
                f"(populate with 'repro batch')"
            )
        old_target, new_target = entries[-2]["key"], entries[-1]["key"]
    else:
        old_target, new_target = args.old, args.new

    try:
        diff = diff_targets(old_target, new_target, store=store)
    except (LookupError, BundleError) as exc:
        _fail(lookup_message(exc))

    if args.json:
        print(canonical_json(diff.to_dict()))
    elif args.markdown:
        print(render_markdown(diff), end="")
    else:
        print(diff.summary())
    return 1 if diff.breaking else 0


def _default_store() -> str:
    import os

    return os.environ.get("REPRO_STORE", "~/.cache/repro/store")


def cmd_batch(args) -> int:
    import time

    from repro.obs.fleet import BatchProgress, run_telemetry_dir
    from repro.obs.ledger import RunLedger, RunRecord, new_run_id
    from repro.perf.parallel import resolve_workers
    from repro.service.jobs import lookup_message
    from repro.service.shard import expand_batch_targets, run_sharded_batch
    from repro.service.store import SCHEMA_VERSION, ResultStore

    targets = list(args.targets)
    if args.corpus:
        targets.append(args.corpus)
    if not targets:
        from repro.corpus import app_keys

        targets = app_keys()
    label = " ".join(targets) if len(targets) <= 4 else (
        f"{targets[0]} ... ({len(targets)} targets)"
    )
    try:
        targets = expand_batch_targets(targets)
    except LookupError as exc:
        _fail(lookup_message(exc))

    store = ResultStore(Path(args.store).expanduser())
    run_id = new_run_id()
    telemetry_dir = None
    if not args.no_telemetry:
        telemetry_dir = run_telemetry_dir(store.root, run_id)
    progress = None
    if args.progress:
        progress = BatchProgress(len(targets))
    out_meta: dict = {}
    started_unix = time.time()
    t0 = time.perf_counter()
    try:
        shard_records = run_sharded_batch(
            store.root,
            targets,
            workers=resolve_workers(args.workers),
            retries=args.retries,
            timeout=args.timeout,
            run_id=run_id,
            telemetry_dir=telemetry_dir,
            progress=progress,
            out_meta=out_meta,
        )
    except ValueError as exc:
        _fail(str(exc))
    wall = time.perf_counter() - t0
    records = [r.to_dict() for r in shard_records]

    # the printed totals and the ledger entry are one derivation
    workers = out_meta["workers"]
    run = RunRecord.from_batch(
        run_id=run_id,
        label=label,
        records=records,
        started_unix=started_unix,
        wall_s=round(wall, 4),
        executor="process" if workers > 1 else "serial",
        workers=workers,
        telemetry_dir=(
            str(telemetry_dir) if telemetry_dir is not None else None
        ),
        fleet_trace=out_meta.get("fleet_trace"),
    )
    if not args.no_ledger:
        RunLedger(store.root).append(run)

    # no store counters: the workers count hits and writes on their own
    # ResultStores, so this one's would read 0 whatever the batch did
    entries = len(store.entries())
    if args.json:
        print(json.dumps({
            "run_id": run_id,
            "jobs": records,
            "cache_hits": run.cache_hits,
            "analyses_run": run.analyses_run,
            "failed": run.failed,
            "store": {"entries": entries, "schema": SCHEMA_VERSION},
            "telemetry_dir": run.telemetry_dir,
            "fleet_trace": run.fleet_trace,
        }, indent=2, sort_keys=True))
        return 1 if run.failed else 0

    print(f"{'target':16s} {'status':8s} {'cache':6s} {'txns':>5s} {'ms':>8s}")
    for record in records:
        key = record.get("result_key")
        envelope = store.lookup(key) if key else None
        txns = (
            str(len(envelope["report"]["transactions"]))
            if envelope is not None
            else "-"
        )
        seconds = record.get("seconds")
        ms = f"{seconds * 1000:.1f}" if seconds is not None else "-"
        cache = "hit" if record["cache_hit"] else "miss"
        print(f"{record['target']:16s} {record['status']:8s} {cache:6s} "
              f"{txns:>5s} {ms:>8s}")
        if record.get("error"):
            print(f"  error: {record['error']}")
    print()
    print(
        f"{run.targets} jobs: {run.done} done ({run.cache_hits} cached), "
        f"{run.failed} failed; analyses run: {run.analyses_run}; "
        f"store: {entries} entries"
    )
    if not args.no_ledger:
        print(f"run {run_id} recorded; inspect with: repro runs show {run_id}")
    return 1 if run.failed else 0


def cmd_runs(args) -> int:
    """Browse the run ledger (``repro runs list`` / ``repro runs show``)."""
    from repro.obs.ledger import RunLedger, render_run, render_runs_table

    ledger = RunLedger(Path(args.store).expanduser())
    if args.action == "list":
        records = ledger.tail(args.limit)
        if args.json:
            print(json.dumps(records, indent=2, sort_keys=True))
        elif not records:
            print(f"no runs recorded in {ledger.path}")
        else:
            print(render_runs_table(records))
        return 0
    record = ledger.get(args.run)
    if record is None:
        _fail(
            f"no run {args.run!r} in {ledger.path} "
            f"(try: repro runs list --store {args.store})"
        )
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(render_run(record))
    return 0


def cmd_index(args) -> int:
    """Build or refresh the fleet search index over a result store."""
    from repro.fleetindex.index import build_index
    from repro.service.store import ResultStore

    store = ResultStore(Path(args.store).expanduser())
    stats = build_index(store, rebuild=args.rebuild)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        mode = "rebuilt" if stats["rebuilt"] else "updated"
        print(
            f"index {mode}: {stats['docs']} reports / {stats['apps']} apps, "
            f"{stats['terms']} terms, {stats['postings']} postings "
            f"({stats['folded']} folded) in {store.root}/index"
        )
    return 0


def cmd_search(args) -> int:
    """Query the fleet index (``repro search host:api.reddit.com``)."""
    from repro.fleetindex.index import FleetIndex
    from repro.fleetindex.query import QueryError, run_search
    from repro.service.store import ResultStore

    store = ResultStore(Path(args.store).expanduser())
    index = FleetIndex(store).refresh()
    try:
        result = run_search(
            index,
            " ".join(args.query),
            limit=args.limit,
            cursor=args.cursor,
        )
    except QueryError as exc:
        _fail(f"bad query: {exc}")
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0 if result["total"] else 1

    print(f"{result['total']} hit(s) for {result['query']!r} "
          f"across {len(result['apps'])} app(s)")
    for hit in result["hits"]:
        score = f"  [{hit['score']:.2f}]" if "score" in hit else ""
        print(f"  {hit['app']}  txn{hit['txn']}{score}  {hit['label']}")
        print(f"    key: {hit['key']}")
    if result["next_cursor"]:
        print(f"more: repro search {' '.join(args.query)} "
              f"--cursor {result['next_cursor']}")
    return 0 if result["total"] else 1


def cmd_mcp(args) -> int:
    """Serve the fleet catalog over stdio JSON-RPC (MCP tool shape)."""
    from repro.fleetindex.mcp import serve
    from repro.service.store import ResultStore

    return serve(ResultStore(Path(args.store).expanduser()))


def cmd_serve(args) -> int:
    import signal

    from repro.service.api import AnalysisService

    # a process manager's SIGTERM drains like Ctrl-C
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    service = AnalysisService(
        Path(args.store).expanduser(),
        host=args.host,
        port=args.port,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
    )
    print(f"repro service listening on {service.url} "
          f"(store: {service.store.root})", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining and shutting down")
        service.stop(drain=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.core.config import MODES

    parser = argparse.ArgumentParser(
        prog="repro", description="Extractocol (CoNEXT 2016) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser(
        "corpus", help="list corpus apps / compile synthetic populations"
    )
    p_corpus.add_argument("--kind", choices=["open", "closed"], default=None)
    p_corpus.add_argument("--synth", metavar="SPEC", default=None,
                          help="also list the apps of a synthesized "
                               "population (synth:<families>*<scale>"
                               "[@<seed>])")
    p_corpus.set_defaults(fn=cmd_corpus)
    corpus_sub = p_corpus.add_subparsers(dest="corpus_cmd")
    p_synth = corpus_sub.add_parser(
        "synth",
        help="compile a dimension-crossed synthetic population "
             "(deterministic, seeded, with ground truth and lineages)",
    )
    p_synth.add_argument("spec", nargs="?", default=None,
                         help="population spec synth:<families>*<scale>"
                              "[@<seed>] (overrides the flags below)")
    p_synth.add_argument("--families", default="all", metavar="F1,F2",
                         help="comma-separated family names, or 'all'")
    p_synth.add_argument("--scale", type=int, default=100, metavar="N",
                         help="total apps across the selected families")
    p_synth.add_argument("--seed", type=int, default=0, metavar="S",
                         help="population seed (same seed = byte-identical "
                              "apps; different seed = distinct population)")
    p_synth.add_argument("--export", metavar="DIR", default=None,
                         help="write every app as DIR/<key>.sapk")
    p_synth.add_argument("--json", action="store_true",
                         help="full manifest (per-app grid coordinates, "
                              "truth totals, lineage labels, digest)")
    p_synth.set_defaults(fn=cmd_corpus_synth)

    p_analyze = sub.add_parser("analyze", help="analyze an app")
    p_analyze.add_argument("target",
                           help="corpus key, lineage label (app@vN), or "
                                ".sapk path")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument("--mode", choices=MODES, default="full",
                           help="analysis mode: full = slice every "
                                "demarcation point; incremental = replay "
                                "cached DP slices of unchanged methods "
                                "from the store's manifest (both produce "
                                "byte-identical reports)")
    p_analyze.add_argument("--store", metavar="DIR", default=None,
                           help="result store holding/receiving the "
                                "incremental manifest (cold runs write "
                                "one; --mode incremental reads the "
                                "previous version's back)")
    g_async = p_analyze.add_mutually_exclusive_group()
    g_async.add_argument("--async-heuristic", dest="async_heuristic",
                         action="store_true", default=None,
                         help="force-enable §3.4's async-event handling")
    g_async.add_argument("--no-async-heuristic", dest="async_heuristic",
                         action="store_false",
                         help="disable §3.4's async-event handling")
    p_analyze.add_argument("--trace", metavar="FILE", default=None,
                           help="write a JSONL pipeline trace to FILE")
    p_analyze.add_argument("--trace-timings", action="store_true",
                           help="include wall-clock seconds per span "
                                "(makes the trace run-specific)")
    p_analyze.add_argument("--ledger", metavar="STORE_DIR", default=None,
                           help="append this run to STORE_DIR's run ledger "
                                "(repro runs list/show)")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_lint = sub.add_parser(
        "lint", help="run the static lint suite (typecheck/dataflow/soundness)"
    )
    p_lint.add_argument("targets", nargs="*",
                        help="corpus keys or .sapk paths (default: whole corpus)")
    p_lint.add_argument("--all", action="store_true",
                        help="also lint every corpus app (the default "
                             "when no targets are given)")
    p_lint.add_argument("--analyze", action="store_true",
                        help="also run the full analysis and include the "
                             "post-analysis SIG0xx signature lints")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable per-app reports + totals")
    p_lint.add_argument("--jsonl", action="store_true",
                        help="schema-checked findings JSONL on stdout")
    p_lint.add_argument("--baseline", metavar="FILE", default=None,
                        help="suppression file: known findings never fail "
                             "the run")
    p_lint.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="record all current findings as the baseline "
                             "and exit 0")
    p_lint.add_argument("--corpus", metavar="SPEC",
                        default=os.environ.get("REPRO_CORPUS"),
                        help="also lint a synthesized population "
                             "(synth:<families>*<scale>[@<seed>]); "
                             "defaults to $REPRO_CORPUS when set")
    p_lint.set_defaults(fn=cmd_lint)

    p_trace = sub.add_parser(
        "trace", help="run one traced analysis and emit the trace"
    )
    p_trace.add_argument("target", nargs="?", default=None,
                         help="corpus key or .sapk path (omit with --from)")
    p_trace.add_argument("--from", dest="from_file", metavar="FILE",
                         default=None,
                         help="render an existing JSONL trace (e.g. a "
                              "batch's merged fleet.trace.jsonl) instead "
                              "of running an analysis")
    p_trace.add_argument("--flame", action="store_true",
                         help="collapsed flamegraph stacks (self-time in "
                              "microseconds) instead of JSONL; a --from "
                              "file needs timed spans, e.g. a batch's "
                              "worker-<n>.trace.jsonl")
    p_trace.add_argument("--out", metavar="FILE", default=None,
                         help="write to FILE instead of stdout")
    p_trace.add_argument("--timings", action="store_true",
                         help="include wall-clock seconds in JSONL spans")
    p_trace.set_defaults(fn=cmd_trace)

    p_explain = sub.add_parser(
        "explain",
        help="taint provenance: why is this field in the signature?",
    )
    p_explain.add_argument("target", help="corpus key or .sapk path")
    p_explain.add_argument(
        "request",
        help="transaction selector: a txn id or a 'METHOD uri' substring",
    )
    p_explain.add_argument(
        "field",
        help="'uri', 'body', 'header:<name>', or a literal fragment",
    )
    p_explain.add_argument("--json", action="store_true")
    p_explain.set_defaults(fn=cmd_explain)

    p_fuzz = sub.add_parser("fuzz", help="run a UI-fuzzing baseline")
    p_fuzz.add_argument("target")
    p_fuzz.add_argument("--mode", choices=["manual", "auto"], default="manual")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_export = sub.add_parser(
        "export", help="save an app (any target 'analyze' takes) as .sapk"
    )
    p_export.add_argument("target")
    p_export.add_argument("output")
    p_export.set_defaults(fn=cmd_export)

    p_diff = sub.add_parser(
        "diff", help="protocol-evolution diff between two app versions"
    )
    p_diff.add_argument("old", nargs="?", default=None,
                        help="old version: corpus key, .sapk path, stored "
                             "result key, or lineage label (app@vN)")
    p_diff.add_argument("new", nargs="?", default=None,
                        help="new version (same target forms)")
    p_diff.add_argument("--latest", metavar="APP", default=None,
                        help="diff the two most recently stored reports "
                             "of APP instead of giving explicit targets")
    p_diff.add_argument("--store", default=None, metavar="DIR",
                        help="result store for key resolution and for "
                             "storing the operands' reports, created if "
                             "missing (default: "
                             "$REPRO_STORE or ~/.cache/repro/store, used "
                             "only if it exists)")
    g_fmt = p_diff.add_mutually_exclusive_group()
    g_fmt.add_argument("--json", action="store_true",
                       help="canonical JSON (byte-stable across reruns)")
    g_fmt.add_argument("--markdown", action="store_true",
                       help="GitHub-flavoured markdown report")
    p_diff.set_defaults(fn=cmd_diff)

    p_eval = sub.add_parser("eval", help="regenerate evaluation artefacts")
    p_eval.add_argument(
        "what",
        choices=["table1", "table2", "figures", "casestudies", "drift",
                 "synth"],
    )
    p_eval.add_argument("--corpus", metavar="SPEC",
                        default=os.environ.get("REPRO_CORPUS"),
                        help="synthesized population "
                             "(synth:<families>*<scale>[@<seed>]) for "
                             "'eval synth' (default synth:all*35@7) and "
                             "'eval drift'; defaults to $REPRO_CORPUS "
                             "when set")
    p_eval.add_argument("--verbose", action="store_true",
                        help="append a per-app phase-timing table")
    p_eval.set_defaults(fn=cmd_eval)

    p_batch = sub.add_parser(
        "batch", help="run targets through the batch engine + result store"
    )
    p_batch.add_argument("targets", nargs="*",
                         help="corpus keys, syn- keys, lineage labels "
                              "(app@vN), population specs "
                              "(synth:<families>*<scale>[@<seed>]) or .sapk "
                              "paths (default: whole corpus)")
    p_batch.add_argument("--corpus", metavar="SPEC", default=None,
                         help="add a synthesized population to the batch")
    p_batch.add_argument("--store", default=_default_store(), metavar="DIR",
                         help="result store root (default: $REPRO_STORE or "
                              "~/.cache/repro/store)")
    p_batch.add_argument("--workers", type=int, default=0, metavar="N",
                         help="analyzer workers (0 = one per CPU); one "
                              "runs in-process, more are worker processes "
                              "that each take the next target when free")
    p_batch.add_argument("--timeout", type=float, default=None, metavar="SEC",
                         help="per-job analysis deadline")
    p_batch.add_argument("--retries", type=int, default=1, metavar="N",
                         help="retries per job on analyzer exceptions")
    p_batch.add_argument("--json", action="store_true",
                         help="machine-readable batch summary")
    p_batch.add_argument("--progress", action="store_true",
                         help="live progress on stderr: throughput, ETA, "
                              "failures, and workers whose current target "
                              "runs far longer than the median")
    p_batch.add_argument("--no-telemetry", action="store_true",
                         help="skip the worker trace streams and the "
                              "merged fleet trace")
    p_batch.add_argument("--no-ledger", action="store_true",
                         help="skip the run-ledger entry")
    p_batch.set_defaults(fn=cmd_batch)

    p_runs = sub.add_parser(
        "runs", help="browse the run ledger (batch/serve/analyze history)"
    )
    runs_sub = p_runs.add_subparsers(dest="action", required=True)
    p_runs_list = runs_sub.add_parser("list", help="recent runs")
    p_runs_list.add_argument("--store", default=_default_store(),
                             metavar="DIR")
    p_runs_list.add_argument("-n", "--limit", type=int, default=20,
                             metavar="N", help="show the last N runs")
    p_runs_list.add_argument("--json", action="store_true")
    p_runs_list.set_defaults(fn=cmd_runs)
    p_runs_show = runs_sub.add_parser(
        "show", help="one run in full (failures, phases, telemetry paths)"
    )
    p_runs_show.add_argument("run", help="run id (prefixes accepted)")
    p_runs_show.add_argument("--store", default=_default_store(),
                             metavar="DIR")
    p_runs_show.add_argument("--json", action="store_true")
    p_runs_show.set_defaults(fn=cmd_runs)

    p_index = sub.add_parser(
        "index", help="build/refresh the fleet search index over a store"
    )
    p_index.add_argument("--store", default=_default_store(), metavar="DIR",
                         help="result store root (default: $REPRO_STORE or "
                              "~/.cache/repro/store)")
    p_index.add_argument("--rebuild", action="store_true",
                         help="re-extract every stored envelope instead of "
                              "folding only the reports the index lacks "
                              "(same bytes either way)")
    p_index.add_argument("--json", action="store_true")
    p_index.set_defaults(fn=cmd_index)

    p_search = sub.add_parser(
        "search", help="query the fleet index (cross-app protocol search)"
    )
    p_search.add_argument("query", nargs="+",
                          help="host:<host> path:<segment|/full/path> "
                               "field:<dep-field> app:<app> "
                               "like:<app>/<txn-id> or free text; clauses "
                               "AND together")
    p_search.add_argument("--store", default=_default_store(), metavar="DIR")
    p_search.add_argument("--limit", type=int, default=None, metavar="N",
                          help="page size (default 50)")
    p_search.add_argument("--cursor", default=None, metavar="CURSOR",
                          help="opaque cursor from the previous page")
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(fn=cmd_search)

    p_mcp = sub.add_parser(
        "mcp", help="MCP-style catalog server over stdio JSON-RPC "
                    "(list_collections / search / get_file)"
    )
    p_mcp.add_argument("--store", default=_default_store(), metavar="DIR")
    p_mcp.set_defaults(fn=cmd_mcp)

    p_serve = sub.add_parser("serve", help="run the HTTP analysis service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8425)
    p_serve.add_argument("--store", default=_default_store(), metavar="DIR")
    p_serve.add_argument("--workers", type=int, default=0, metavar="N",
                         help="scheduler worker threads (0 = one per CPU)")
    p_serve.add_argument("--timeout", type=float, default=None, metavar="SEC")
    p_serve.add_argument("--retries", type=int, default=1, metavar="N")
    p_serve.set_defaults(fn=cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro runs show ... | head`);
        # exit quietly the way grep/cat do instead of dumping a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
