"""``python -m repro bench`` — the continuous-benchmarking commands.

- ``run``       execute a suite (``--compare`` gates against the baseline
  store, ``--record`` moves the baseline ref to the fresh report);
- ``compare``   classify one report JSON against the store or another file;
- ``baseline``  ``record``/``show`` the content-addressed store;
- ``list``      the registered catalog.

Exit codes are machine-readable: 0 clean, 1 at least one *deterministic*
metric regressed (wall-clock regressions only warn — as GitHub
``::warning::`` annotations when running under Actions), 2 usage or I/O
error (via the top-level CLI's :class:`~repro.errors.ReproError`
handler). docs/BENCHMARKING.md documents the workflow.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.errors import PerfError
from repro.perf.baselines import BaselineStore
from repro.perf.registry import INJECT_ENV, catalog
from repro.perf.regression import (
    NOISY,
    REGRESSED,
    Comparison,
    Thresholds,
    compare_reports,
)
from repro.perf.report import PerfReport
from repro.perf.runner import Runner


def _print_comparison(comparison: Comparison, as_json: bool) -> None:
    if as_json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
        return
    from repro.analysis import format_table

    rows = []
    for r in comparison.rows:
        rows.append([
            r.benchmark,
            r.metric,
            r.kind,
            "-" if r.baseline_median is None else f"{r.baseline_median:.6g}",
            "-" if r.current_median is None else f"{r.current_median:.6g}",
            "-" if r.ratio is None else f"{r.ratio:.3f}x",
            r.verdict + (" [gate]" if r.gates else ""),
        ])
    print(format_table(
        ["benchmark", "metric", "kind", "baseline", "current", "ratio", "verdict"],
        rows,
        title=f"perf comparison: {comparison.current_suite} vs baseline",
    ))
    print(comparison.summary())


def _annotate_ci(comparison: Comparison) -> None:
    """Surface wall-clock noise/regressions as Actions annotations
    (warnings, not failures) when running under GitHub Actions."""
    if not os.environ.get("GITHUB_ACTIONS"):
        return
    for r in comparison.rows:
        if r.gates or r.verdict not in (REGRESSED, NOISY):
            continue
        print(
            f"::warning title=perf {r.verdict}::{r.benchmark}/{r.metric} "
            f"{r.verdict}: baseline {r.baseline_median:.6g} -> current "
            f"{r.current_median:.6g} ({r.note or 'wall-clock; warn only'})"
        )


def _echo(name: str, took: float, metrics: int) -> None:
    print(f"  {name}: {took:.2f}s, {metrics} metrics", file=sys.stderr, flush=True)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.bench_cmd == "list":
        defs = catalog()
        if args.json:
            print(json.dumps(
                {
                    name: {
                        "suites": list(d.suites),
                        "description": d.description,
                        "smoke_reps": d.smoke_reps,
                        "full_reps": d.full_reps,
                        "warmup": d.warmup,
                    }
                    for name, d in defs.items()
                },
                indent=2,
                sort_keys=True,
            ))
            return 0
        for name, d in defs.items():
            suites = ",".join(d.suites)
            print(f"  {name:22s} [{suites}] {d.description}")
        return 0

    store = BaselineStore(args.baseline_dir)

    if args.bench_cmd == "baseline":
        if args.baseline_cmd == "show":
            refs = store.list()
            if args.json:
                print(json.dumps(refs, indent=2, sort_keys=True))
                return 0
            if not refs:
                print(f"no baselines recorded under {store.root}")
                return 0
            for suite, ref in sorted(refs.items()):
                sha = (ref.get("git_sha") or "?")[:12]
                print(f"  {suite:12s} object {ref['object']} @ {sha} "
                      f"({len(ref.get('benchmarks', []))} benchmarks)")
            return 0
        # record
        report = PerfReport.load(args.report)
        if report.config.get("inject"):
            raise PerfError(
                f"refusing to record a baseline from a report produced "
                f"with {INJECT_ENV}={report.config['inject']} (the "
                "gate-test knob); re-run without injection"
            )
        object_id = store.record(report, force=args.force)
        print(f"baseline {report.suite!r} -> object {object_id} "
              f"({len(report.benchmarks)} benchmarks) under {store.root}")
        return 0

    thresholds = Thresholds(
        deterministic_rel=args.tolerance,
        bootstrap_seed=args.bootstrap_seed,
    )

    if args.bench_cmd == "compare":
        current = PerfReport.load(args.report)
        if args.against:
            baseline = PerfReport.load(args.against)
        else:
            baseline = store.load(current.suite)
        comparison = compare_reports(baseline, current, thresholds)
        _print_comparison(comparison, args.json)
        _annotate_ci(comparison)
        return comparison.exit_code()

    if args.bench_cmd == "run":
        mode = args.mode or ("smoke" if args.suite == "smoke" else "full")
        runner = Runner(mode=mode, reps=args.reps, warmup=args.warmup)
        progress = None if args.quiet else _echo
        report = runner.run(
            suite=args.suite, pattern=args.filter, progress=progress
        )
        if args.out:
            report.save(args.out)
            print(f"report written to {args.out}", file=sys.stderr)
        if args.record:
            if report.config.get("inject"):
                raise PerfError(
                    f"refusing to record a baseline with {INJECT_ENV} set "
                    "(the gate-test knob); unset it and re-run"
                )
            object_id = store.record(report, force=args.force)
            print(f"baseline {report.suite!r} -> object {object_id} "
                  f"under {store.root}")
        if args.compare:
            baseline = store.load(report.suite)
            comparison = compare_reports(baseline, report, thresholds)
            _print_comparison(comparison, args.json)
            _annotate_ci(comparison)
            return comparison.exit_code()
        if not args.record and not args.out:
            # A run nobody consumed: print the medians so it wasn't silent.
            for name, bench in sorted(report.benchmarks.items()):
                for metric, series in sorted(bench.metrics.items()):
                    mid = sorted(series.samples)[len(series.samples) // 2]
                    print(f"  {name}/{metric} [{series.kind}]: {mid:.6g}")
        return 0

    raise PerfError(f"unknown bench command {args.bench_cmd!r}")


def add_bench_parser(sub: argparse._SubParsersAction) -> None:
    """Wire the ``bench`` command tree into the top-level CLI."""
    p = sub.add_parser(
        "bench",
        help="continuous benchmarking: run suites, gate against baselines "
             "(docs/BENCHMARKING.md)",
    )
    bsub = p.add_subparsers(dest="bench_cmd", required=True)

    def common(pp: argparse.ArgumentParser) -> None:
        pp.add_argument("--baseline-dir", default=None,
                        help="baseline store root (default: perf/baselines)")
        pp.add_argument("--tolerance", type=float, default=0.02,
                        help="relative tolerance for deterministic metrics "
                             "(default: 0.02)")
        pp.add_argument("--bootstrap-seed", type=int, default=0,
                        help="seed for the bootstrap CI resampler")
        pp.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")

    pr = bsub.add_parser("run", help="execute a benchmark suite")
    pr.add_argument("--suite", default="smoke",
                    help="suite to run (smoke, full, sweep; default: smoke)")
    pr.add_argument("--filter", default=None,
                    help="glob over benchmark names (e.g. 'sweep.*')")
    pr.add_argument("--mode", choices=["smoke", "full"], default=None,
                    help="working-set sizing (default: follows --suite)")
    pr.add_argument("--reps", type=int, default=None,
                    help="override per-benchmark repetition counts")
    pr.add_argument("--warmup", type=int, default=None,
                    help="override per-benchmark warmup repetitions")
    pr.add_argument("--out", default=None,
                    help="write the PerfReport JSON here")
    pr.add_argument("--compare", action="store_true",
                    help="compare against the recorded baseline and gate "
                         "(exit 1 on a deterministic regression)")
    pr.add_argument("--record", action="store_true",
                    help="record this run as the suite's baseline")
    pr.add_argument("--force", action="store_true",
                    help="allow --record to move a baseline recorded at a "
                         "different git sha")
    pr.add_argument("--quiet", action="store_true",
                    help="suppress per-benchmark progress lines")
    common(pr)

    pc = bsub.add_parser("compare", help="classify a report against a baseline")
    pc.add_argument("report", help="current PerfReport JSON")
    pc.add_argument("--against", default=None,
                    help="explicit baseline report JSON (default: the "
                         "store's ref for the report's suite)")
    common(pc)

    pb = bsub.add_parser("baseline", help="manage the baseline store")
    bbsub = pb.add_subparsers(dest="baseline_cmd", required=True)
    pbr = bbsub.add_parser("record", help="record a report as its suite's baseline")
    pbr.add_argument("report", help="PerfReport JSON to record")
    pbr.add_argument("--force", action="store_true",
                     help="move a baseline recorded at a different git sha")
    common(pbr)
    pbs = bbsub.add_parser("show", help="list recorded baseline refs")
    common(pbs)

    pl = bsub.add_parser("list", help="the registered benchmark catalog")
    pl.add_argument("--json", action="store_true")

    p.set_defaults(fn=cmd_bench)
