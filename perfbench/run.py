"""Host-time benchmark of the reproduction: one workload, one seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spec-mutator --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with nothing installed and prints the
end-to-end metrics; ``--trace 1`` runs it untraced and then traced,
prints the per-layer metrics, and writes every span to
``.perfbench_state/spans/<workload>.npz``. Either way every op's output
is checked (``checks.py``), and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Times are rescaled to a reference host speed (``calibrate.py``).

``--write-digests`` recomputes the committed default-seed digests
(``perfbench/digests.json``) in-process and exits.

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working space for passes, spans and temporary files (git-ignored).
STATE = ROOT / ".perfbench_state"

#: Units of every metric the benchmark prints.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
}
PER_LAYER = {
    "machine.cpu.calls": "count",
    "machine.cpu.busy_s": "s",
    "machine.cache.busy_s": "s",
    "machine.cache.accesses": "count",
    "machine.cache.miss_ratio": "ratio",
    "workloads.self_s": "s",
    "alloc.calls": "count",
    "alloc.busy_s": "s",
    "alloc.blocked_ops": "count",
    "kernel.revoker.sweep_busy_s": "s",
    "kernel.revoker.pages_swept": "count",
    "kernel.revoker.fault_busy_s": "s",
    "kernel.revoker.faults": "count",
    "kernel.revoker.spurious_ratio": "ratio",
    "core.sim.host_ns_per_access": "ns",
    "runner.pool.idle_ratio": "ratio",
    "runner.cache.get_s": "s",
    "runner.cache.put_s": "s",
    "runner.cache.hit_ratio": "ratio",
    "runner.retries": "count",
    "snapshot.prefix.captures": "count",
    "snapshot.prefix.hits": "count",
    "snapshot.prefix.bytes": "bytes",
    "snapshot.capture_s": "s",
    "snapshot.restore_s": "s",
    "serve.queue_ms_p50": "ms",
    "serve.exec_ms_p50": "ms",
    "serve.service_ms_p50": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.retries": "count",
    "serve.worker_restarts": "count",
    "serve.client.overhead_ms_p50": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Set-ups per run at least, so ``setup_s`` is a median.
MIN_SETUPS = 5


def process_age_s() -> float:
    """Seconds since this process started (from /proc, 10 ms ticks)."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        return uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def prepare_environment() -> None:
    """Point the package, its children and every temporary file at this
    checkout, and drop ``REPRO_*`` knobs inherited from the caller."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # Nothing should reach the default cache; if it does, it stays here.
    os.environ["REPRO_CACHE_DIR"] = str(STATE / "default-cache")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(ROOT)]


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


class Bench:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, workload: Any, checker: Any, run_dir: Path) -> None:
        self.workload = workload
        self.checker = checker
        self.run_dir = run_dir
        self.count = 0
        #: Set-up times, each rescaled by its pass's speed factor.
        self.setups: list[float] = []
        #: Every calibration sample of the run (see calibrate.py).
        self.calibration: list[float] = []

    def one_pass(
        self, variant: int, *, run: bool = True, in_process: bool = False, recorder: Any = None
    ):
        from perfbench import calibrate
        from perfbench.workloads import INPUT_SETS, Pass

        state = Pass(self.run_dir / f"pass-{self.count}", variant % INPUT_SETS)
        self.count += 1
        checking = [0.0]
        timings = calibrate.samples()

        def check(op: Any) -> None:
            began = time.perf_counter()
            self.checker.check(op)
            if op.sim is not None:
                # Free the checked simulation's heap (it holds reference
                # cycles) before the next op, as a per-job worker process
                # would; peak RSS then does not hang on collector timing.
                op.sim = None
                gc.collect()
            timings.append(calibrate.sample())
            checking[0] += time.perf_counter() - began

        state.on_op = check
        setup_s = None
        began = time.perf_counter()
        try:
            self.workload.setup(state)
            setup_s = time.perf_counter() - began
            if run:
                began = time.perf_counter()
                self.workload.run(state, in_process=in_process, recorder=recorder)
                state.facts["raw_run_s"] = time.perf_counter() - began - checking[0]
        except Exception as exc:  # a pass that cannot start fails its ops
            if run:
                self.checker.fail_all(
                    self.workload.op_count(state.variant), f"{type(exc).__name__}: {exc}"
                )
            else:
                print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            self.workload.teardown(state)
        gc.collect()
        timings += calibrate.samples()
        self.calibration += timings
        speed = state.facts["speed"] = calibrate.factor(timings)
        if setup_s is not None:
            self.setups.append(setup_s * speed)
        if "raw_run_s" in state.facts:
            state.facts["run_s"] = state.facts["raw_run_s"] * speed
        return state

    def top_up_setups(self) -> None:
        for _ in range(MIN_SETUPS - len(self.setups)):
            self.one_pass(0, run=False)


def median_of(passes: list[Any], fact: str) -> float:
    values = [p.facts[fact] for p in passes if fact in p.facts]
    return statistics.median(values) if values else 0.0


def start_up_samples(workload: str) -> list[float]:
    """Start-up (interpreter, imports) of fresh benchmark processes, so
    ``setup_s`` is a median of several set-ups like the rest of it."""
    samples = []
    for _ in range(MIN_SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--import-only"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode == 0:
            samples.append(float(proc.stdout.split()[-1]))
    return samples


def peak_rss_mb(passes: list[Any]) -> float:
    """Peak RSS of this process plus the largest peak among its children
    (and theirs). Read it before starting any helper process: a child's
    peak includes its parent's RSS at fork.

    Where passes keep long-lived children (serve-mixed's daemon and its
    workers, whose peaks grow with the jobs a pass happens to give
    them), the children's part is the median over passes of each pass's
    largest peak, read before the pass's teardown; otherwise it is the
    largest peak among all reaped children.
    """
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_pass = [p.facts["child_peak_kib"] for p in passes if "child_peak_kib" in p.facts]
    if per_pass:
        child_kib = statistics.median(per_pass)
    else:
        child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"peak rss: this process {self_kib / 1024:.1f} MiB, "
          f"children {child_kib / 1024:.1f} MiB")
    return (self_kib + child_kib) / 1024


def end_to_end(
    bench: Bench, passes: list[Any], rss_mb: float, start_ups: list[float]
) -> dict[str, float]:
    from perfbench import calibrate

    # Each op's latency at its pass's speed factor, like run_s; start-up
    # samples (other processes) at the run's.
    latencies = [op.latency_s * 1000 * p.facts["speed"] for p in passes for op in p.ops]
    above = sum(1 for v in latencies if v > percentile(latencies, 90)) if latencies else 0
    print(f"req samples {len(latencies)} (above p90: {above})")
    return {
        "setup_s": statistics.median(start_ups) * calibrate.factor(bench.calibration)
        + (statistics.median(bench.setups) if bench.setups else 0.0),
        "run_s": median_of(passes, "run_s"),
        "peak_rss_mb": rss_mb,
        "req_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "req_p90_ms": percentile(latencies, 90) if latencies else 0.0,
    }


def per_layer(
    recorder: Any, traced: list[Any], untraced: list[Any], pooled: list[Any]
) -> dict[str, float]:
    n = max(1, len(traced))
    layers = recorder.by_layer()

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    results = [op.result for p in traced for op in p.ops if op.result is not None]
    hits, misses = recorder.counters["cache.hits"], recorder.counters["cache.misses"]
    # Every load-generation fault taken: swept in the foreground, or
    # spurious (the page was already current; a TLB refill settles it).
    spurious = sum(r.spurious_faults for r in results)
    faults = sum(r.foreground_faults for r in results) + spurious
    cpu_calls = layer("machine.cpu", "calls")
    progress = [p.facts["progress"] for p in traced if "progress" in p.facts]
    out = {
        "machine.cpu.calls": cpu_calls,
        "machine.cpu.busy_s": layer("machine.cpu", "self_s"),
        "machine.cache.busy_s": layer("machine.cache", "self_s"),
        "machine.cache.accesses": (hits + misses) / n,
        "machine.cache.miss_ratio": ratio(misses, hits + misses),
        "workloads.self_s": layer("core.sim", "self_s"),
        "alloc.calls": layer("alloc", "calls"),
        "alloc.busy_s": layer("alloc", "self_s"),
        "alloc.blocked_ops": sum(r.blocked_operations for r in results) / n,
        "kernel.revoker.sweep_busy_s": layer("kernel.revoker.sweep", "self_s"),
        "kernel.revoker.pages_swept": sum(r.pages_swept for r in results) / n,
        "kernel.revoker.fault_busy_s": layer("kernel.revoker.fault", "self_s"),
        "kernel.revoker.faults": faults / n,
        "kernel.revoker.spurious_ratio": ratio(spurious, faults),
        "core.sim.host_ns_per_access": ratio(layer("core.sim", "total_s") * 1e9, cpu_calls),
        "runner.pool.idle_ratio": 0.0,
        "runner.cache.get_s": layer("runner.cache.get", "total_s"),
        "runner.cache.put_s": layer("runner.cache.put", "total_s"),
        "runner.cache.hit_ratio": ratio(
            sum(p.cache_hits for p in progress), sum(p.total for p in progress)
        ),
        "runner.retries": sum(p.retries for p in progress) / n,
        "snapshot.prefix.captures": sum(p.prefix_captures for p in progress) / n,
        "snapshot.prefix.hits": sum(p.prefix_hits for p in progress) / n,
        "snapshot.prefix.bytes": sum(p.facts.get("prefix_bytes", 0) for p in traced) / n,
        "snapshot.capture_s": layer("snapshot.capture", "total_s"),
        "snapshot.restore_s": layer("snapshot.restore", "total_s"),
        "trace.overhead_ratio": ratio(median_of(traced, "run_s"), median_of(untraced, "run_s")),
    }
    if pooled:
        # 1 - (summed job wall time) / (campaign wall time x workers).
        busy = sum(sum(p.facts["progress"].elapsed.values()) for p in pooled)
        capacity = sum(p.facts["wall_s"] * p.facts["workers"] for p in pooled)
        out["runner.pool.idle_ratio"] = 1.0 - ratio(busy, capacity)
    out.update(serve_layer(traced))
    return out


def serve_layer(traced: list[Any]) -> dict[str, float]:
    """The daemon's own view (its ``stats`` verb) plus client overhead,
    each the median over the traced passes."""
    from perfbench.workloads import serve_stats

    rows = []
    for state in traced:
        registry = serve_stats(state)
        if registry is None:
            continue

        def count(name: str) -> int:
            return registry.counter(name).value

        def p50_ms(name: str) -> float:
            hist = registry.histogram(name)
            return hist.quantile(0.5) / 1000 if hist.count else 0.0

        answered = sum(
            count(name) for name in ("serve.cache_hits", "serve.dedup_hits", "serve.fresh_results")
        )
        rows.append({
            "serve.queue_ms_p50": p50_ms("serve.queue_us"),
            "serve.exec_ms_p50": p50_ms("serve.exec_us"),
            "serve.service_ms_p50": p50_ms("serve.service_us"),
            "serve.cache_hit_ratio": count("serve.cache_hits") / answered if answered else 0.0,
            "serve.retries": count("serve.retries"),
            "serve.worker_restarts": count("serve.worker_restarts"),
            "serve.client.overhead_ms_p50": 1000 * statistics.median(
                state.facts.get("client_overhead_s") or [0.0]
            ),
        })
    return {
        name: statistics.median(row[name] for row in rows) if rows else 0.0
        for name in PER_LAYER
        if name.startswith("serve.")
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name (or 'all' with --write-digests)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting passes until this much time has gone")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op (the benchmark's own tests)")
    parser.add_argument("--digests", type=Path, default=None,
                        help="digests file to check against (default: the committed one)")
    parser.add_argument("--write-digests", action="store_true",
                        help="recompute the digests of --workload at --seed/--size and exit")
    parser.add_argument("--import-only", action="store_true",
                        help="print this process's start-up time and exit")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    age_at_start = process_age_s()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    prepare_environment()
    try:
        import repro
        from perfbench import checks
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    digests_path = args.digests or checks.DIGESTS_PATH
    if args.write_digests:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if not set(names) <= set(WORKLOADS):
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        checks.record_digests([WORKLOADS[n](args.seed, args.size) for n in names], digests_path)
        print(f"wrote {digests_path}")
        return 0
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    import_s = age_at_start + (time.perf_counter() - _SCRIPT_START)
    if args.import_only:
        print(repr(import_s))
        return 0
    workload = WORKLOADS[args.workload](args.seed, args.size)
    expected = checks.load_expected(digests_path, workload.name, args.seed, args.size)
    checker = checks.Checker(expected)
    run_dir = STATE / f"run-{os.getpid()}"
    bench = Bench(workload, checker, run_dir)
    try:
        if args.trace:
            metrics, first_pass = traced_run(bench, args.seconds, workload)
            units = PER_LAYER
        else:
            metrics, first_pass = untraced_run(bench, args.seconds, workload, import_s)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    first = checker.workload_digest(op.key for op in first_pass.ops)
    print(f"digest {workload.name} seed={args.seed} size={args.size} input-set=0 {first}")
    for failure in checker.failures:
        print(f"FAILED {failure}")
    print(f"failed_ratio {checker.failed / max(1, checker.attempted)!r} fraction "
          f"({checker.failed} of {checker.attempted} ops)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def untraced_run(
    bench: Bench, seconds: float, workload: Any, import_s: float
) -> tuple[dict[str, float], Any]:
    """Passes until ``seconds`` have gone, with nothing installed."""
    passes = []
    began = time.perf_counter()
    while True:
        passes.append(bench.one_pass(len(passes)))
        if time.perf_counter() - began >= seconds:
            break
    bench.top_up_setups()
    print(f"passes {len(passes)} run_s {[round(p.facts.get('run_s', 0), 4) for p in passes]}")
    print(f"raw run_s {[round(p.facts.get('raw_run_s', 0), 4) for p in passes]}")
    print(f"speed factor {[round(p.facts['speed'], 3) for p in passes]}")
    rss_mb = peak_rss_mb(passes)
    start_ups = [import_s] + start_up_samples(workload.name)
    return end_to_end(bench, passes, rss_mb, start_ups), passes[0]


def traced_run(bench: Bench, seconds: float, workload: Any) -> tuple[dict[str, float], Any]:
    """Untraced and traced passes in pairs until ``seconds`` have gone.

    campaign-sweep's pairs run in-process on one worker, so the wrappers
    see work done in forked pool children otherwise; one pooled untraced
    pass first gives ``runner.pool.idle_ratio``.
    """
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    pooled, untraced, traced = [], [], []
    in_process = workload.name == "campaign-sweep"
    if in_process:
        pooled.append(bench.one_pass(0))
    began = time.perf_counter()
    while True:
        variant = len(traced)
        untraced.append(bench.one_pass(variant, in_process=in_process))
        recorder.install()
        try:
            traced.append(bench.one_pass(variant, in_process=in_process, recorder=recorder))
        finally:
            recorder.uninstall()
        if time.perf_counter() - began >= seconds:
            break
    recorder.write(STATE / "spans" / f"{workload.name}.npz")
    print(f"spans {len(recorder)} written to {STATE / 'spans' / (workload.name + '.npz')}")
    return per_layer(recorder, traced, untraced, pooled), untraced[0]


if __name__ == "__main__":
    sys.exit(main())
