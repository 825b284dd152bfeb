"""Load generator for the simulation service (``repro serve bench``).

Three phases, each optional, one JSON report (``BENCH_serve.json``):

- **service** — closed-loop (``--mode closed``: N threads issue requests
  back-to-back) or open-loop (``--mode open``: requests fire on a fixed
  schedule at ``--rate`` rps regardless of completions) traffic over a
  workload x strategy mix, reporting throughput, client-side p50/p99,
  and the daemon's own stats snapshot;
- **burst** (``--burst N``) — N simultaneous *fresh* (unique-seed)
  requests, deliberately past the admission bound, demonstrating that
  overload produces structured ``overloaded`` rejections rather than
  hangs or crashes;
- **spawn baseline** (``--spawn-baseline N``) — the same requests issued
  the pre-serve way, one ``python -m repro run`` subprocess per request,
  quantifying what the warm worker pool saves (the acceptance criterion
  is >= 5x service throughput over this baseline).

``--autostart`` makes the run self-contained: it forks a daemon on a
temporary Unix socket, benches it, and drains it afterwards.

The report is a schema-v1 :class:`repro.perf.report.PerfReport`: the
headline per-phase stats land under ``benchmarks`` (wall metrics only —
serving throughput is host-dependent), the full raw phase sections under
``detail.raw``. An existing report recorded at a different git sha is
never silently clobbered — pass ``--force`` to re-record.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import repro
from repro.analysis import percentile
from repro.errors import PerfError
from repro.perf.report import (
    check_overwrite,
    collect_env,
    convert_legacy,
    git_sha,
    recorded_sha,
)
from repro.serve.client import Overloaded, RequestFailed, ServeClient, ServeError


@dataclass
class Sample:
    """One request's client-side outcome."""

    ok: bool
    latency_s: float
    cached: bool = False
    deduped: bool = False
    error_code: str | None = None


def default_mix(scale: int) -> list[dict[str, Any]]:
    """The standard bench traffic: two SPEC surrogates x four strategies."""
    jobs = []
    for benchmark, inp in (("hmmer", "retro"), ("gobmk", "13x13")):
        for revoker in ("none", "cherivoke", "cornucopia", "reloaded"):
            jobs.append({
                "workload": {
                    "kind": "spec",
                    "params": {"benchmark": benchmark, "input": inp, "scale": scale},
                },
                "revoker": revoker,
                "config": {},
            })
    return jobs


def _issue(client: ServeClient, job: dict[str, Any], timeout: float) -> Sample:
    began = time.perf_counter()
    try:
        response = client.run_job_dict(job, timeout=timeout)
    except Overloaded:
        return Sample(False, time.perf_counter() - began, error_code="overloaded")
    except RequestFailed as exc:
        return Sample(False, time.perf_counter() - began, error_code=exc.code)
    except ServeError as exc:
        return Sample(
            False, time.perf_counter() - began,
            error_code=type(exc).__name__.lower(),
        )
    return Sample(
        True,
        time.perf_counter() - began,
        cached=response.cached,
        deduped=response.deduped,
    )


def closed_loop(
    make_client: Callable[[], ServeClient],
    mix: Sequence[dict[str, Any]],
    requests: int,
    concurrency: int,
    timeout: float,
) -> tuple[list[Sample], float]:
    """N threads, each its own connection, issuing back-to-back."""
    samples: list[Sample | None] = [None] * requests
    began = time.perf_counter()

    def worker(thread_index: int) -> None:
        with make_client() as client:
            for i in range(thread_index, requests, concurrency):
                samples[i] = _issue(client, mix[i % len(mix)], timeout)

    threads = [
        threading.Thread(target=worker, args=(t,), daemon=True)
        for t in range(min(concurrency, requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    return [s for s in samples if s is not None], wall


def open_loop(
    make_client: Callable[[], ServeClient],
    mix: Sequence[dict[str, Any]],
    requests: int,
    rate: float,
    concurrency: int,
    timeout: float,
) -> tuple[list[Sample], float]:
    """Fire on a fixed schedule (``rate`` rps) regardless of completions,
    so queueing delay shows up in the latency numbers."""
    samples: list[Sample | None] = [None] * requests
    began = time.perf_counter()
    counter = iter(range(requests))
    lock = threading.Lock()

    def worker() -> None:
        with make_client() as client:
            while True:
                with lock:
                    i = next(counter, None)
                if i is None:
                    return
                fire_at = began + i / rate
                delay = fire_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                samples[i] = _issue(client, mix[i % len(mix)], timeout)

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(min(concurrency, requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    return [s for s in samples if s is not None], wall


def burst(
    make_client: Callable[[], ServeClient],
    jobs: Sequence[dict[str, Any]],
    timeout: float,
) -> tuple[list[Sample], float]:
    """Every job fired simultaneously from its own connection — the
    overload demonstration."""
    samples: list[Sample | None] = [None] * len(jobs)
    gate = threading.Barrier(len(jobs))
    began = time.perf_counter()

    def worker(i: int) -> None:
        with make_client() as client:
            client.ping()
            gate.wait()
            samples[i] = _issue(client, jobs[i], timeout)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(len(jobs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    return [s for s in samples if s is not None], wall


def fresh_jobs(
    count: int, scale: int, seed_base: int | None = None
) -> list[dict[str, Any]]:
    """``count`` unique-fingerprint jobs (distinct seeds): nothing in the
    cache, nothing dedupable — every one needs a worker.

    ``seed_base`` defaults to a per-invocation random nonce. A fixed
    default would make the *second* bench run against a live daemon hit
    the result cache for every "fresh" burst job and report inflated
    overload throughput; pass an explicit base only when reproducing a
    specific run (and expect cache hits if the daemon has seen it).
    """
    if seed_base is None:
        # Keep clear of the deterministic seed ranges campaigns use.
        seed_base = 1_000_000_000 + int.from_bytes(os.urandom(4), "big")
    return [
        {
            "workload": {
                "kind": "spec",
                "params": {
                    "benchmark": "hmmer",
                    "input": "retro",
                    "scale": scale,
                    "seed": seed_base + i,
                },
            },
            "revoker": "reloaded",
            "config": {},
        }
        for i in range(count)
    ]


# --- The pre-serve baseline: one subprocess per request ------------------


def _spawn_env() -> dict[str, str]:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _job_to_cli(job: dict[str, Any]) -> list[str]:
    workload = job["workload"]
    params = workload["params"]
    if workload["kind"] == "spec":
        name = f"{params['benchmark']}.{params['input']}"
        return [
            name, job["revoker"], "--scale", str(params.get("scale", 256)),
        ]
    if workload["kind"] == "pgbench":
        return [
            "pgbench", job["revoker"],
            "--transactions", str(params.get("transactions", 500)),
        ]
    if workload["kind"] == "grpc":
        return [
            "grpc", job["revoker"],
            "--seconds", str(params.get("duration_seconds", 0.5)),
        ]
    raise ValueError(f"no CLI equivalent for workload kind {workload['kind']!r}")


def spawn_baseline(
    mix: Sequence[dict[str, Any]], requests: int
) -> tuple[list[Sample], float]:
    """The old way: a fresh ``python -m repro run`` process per request
    (cold interpreter, cold imports, cold caches — sequentially, exactly
    like a shell loop would)."""
    env = _spawn_env()
    samples: list[Sample] = []
    began = time.perf_counter()
    for i in range(requests):
        args = _job_to_cli(mix[i % len(mix)])
        request_began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", *args],
            env=env, capture_output=True, text=True,
        )
        samples.append(
            Sample(
                ok=proc.returncode == 0,
                latency_s=time.perf_counter() - request_began,
                error_code=None if proc.returncode == 0 else "spawn-failed",
            )
        )
    return samples, time.perf_counter() - began


# --- Reporting ------------------------------------------------------------


def summarize(samples: Sequence[Sample], wall_s: float) -> dict[str, Any]:
    latencies_ms = [s.latency_s * 1e3 for s in samples if s.ok]
    oks = sum(1 for s in samples if s.ok)
    return {
        "requests": len(samples),
        "ok": oks,
        "failures": sum(1 for s in samples if not s.ok and s.error_code != "overloaded"),
        "overloaded": sum(1 for s in samples if s.error_code == "overloaded"),
        "cached": sum(1 for s in samples if s.cached),
        "deduped": sum(1 for s in samples if s.deduped),
        "fresh": sum(1 for s in samples if s.ok and not s.cached and not s.deduped),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(oks / wall_s, 2) if wall_s > 0 else 0.0,
        "p50_ms": round(percentile(latencies_ms, 50), 3) if latencies_ms else None,
        "p99_ms": round(percentile(latencies_ms, 99), 3) if latencies_ms else None,
        "mean_ms": (
            round(sum(latencies_ms) / len(latencies_ms), 3) if latencies_ms else None
        ),
    }


def _start_daemon(
    socket_path: str, workers: int, queue: int, log_path: Path
) -> subprocess.Popen:
    log = open(log_path, "w")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", socket_path,
            "--workers", str(workers),
            "--queue", str(queue),
        ],
        env=_spawn_env(), stdout=log, stderr=subprocess.STDOUT,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--socket", default=None, help="daemon unix socket path")
    parser.add_argument("--host", default=None, help="daemon TCP host")
    parser.add_argument("--port", type=int, default=None, help="daemon TCP port")
    parser.add_argument("--autostart", action="store_true",
                        help="fork a daemon on a temp socket; drain it afterwards")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon workers (autostart only)")
    parser.add_argument("--queue", type=int, default=16,
                        help="daemon admission bound (autostart only)")
    parser.add_argument("--requests", type=int, default=50,
                        help="service-phase request count")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="concurrent client connections")
    parser.add_argument("--mode", choices=["closed", "open"], default="closed")
    parser.add_argument("--rate", type=float, default=20.0,
                        help="open-loop arrival rate (requests/s)")
    parser.add_argument("--scale", type=int, default=2048,
                        help="mix workload scale divisor (bigger = faster jobs)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request client timeout")
    parser.add_argument("--spawn-baseline", type=int, default=0, metavar="N",
                        help="also run N process-spawn requests and report the speedup")
    parser.add_argument("--burst", type=int, default=0, metavar="N",
                        help="also fire N simultaneous fresh jobs (overload demo)")
    parser.add_argument("--burst-scale", type=int, default=512,
                        help="burst workload scale (smaller = slower jobs)")
    parser.add_argument("--seed-base", type=int, default=None,
                        help="first seed for burst jobs (default: a per-run "
                             "nonce, so repeat runs cannot hit the result "
                             "cache and inflate burst throughput)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless service/spawn speedup reaches this")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here")
    parser.add_argument("--force", action="store_true",
                        help="overwrite a report recorded at a different git sha")
    args = parser.parse_args(argv)

    if args.socket and args.host:
        parser.error("give --socket or --host, not both")
    if not args.socket and not args.host and not args.autostart:
        parser.error("need --socket, --host/--port, or --autostart")

    # Check the overwrite guard up front, before the expensive run — a
    # refused report after minutes of load generation would be cruel.
    if args.out is not None and args.out.exists():
        try:
            existing = json.loads(args.out.read_text())
        except (OSError, json.JSONDecodeError):
            existing = None
        if isinstance(existing, dict):
            try:
                check_overwrite(
                    recorded_sha(existing), git_sha(), str(args.out), args.force
                )
            except PerfError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

    daemon: subprocess.Popen | None = None
    tmp: tempfile.TemporaryDirectory | None = None
    socket_path = args.socket
    daemon_log: Path | None = None
    if args.autostart:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
        socket_path = os.path.join(tmp.name, "serve.sock")
        daemon_log = Path(tmp.name) / "daemon.log"
        daemon = _start_daemon(socket_path, args.workers, args.queue, daemon_log)

    def make_client(**overrides: Any) -> ServeClient:
        kwargs: dict[str, Any] = {"request_timeout": args.timeout, **overrides}
        if socket_path:
            return ServeClient(socket_path=socket_path, **kwargs)
        return ServeClient(host=args.host, port=args.port, **kwargs)

    report: dict[str, Any] = {
        "benchmark": "serve",
        "config": {
            "mode": args.mode,
            "requests": args.requests,
            "concurrency": args.concurrency,
            "scale": args.scale,
            "autostart": args.autostart,
            "workers": args.workers if args.autostart else None,
            "queue": args.queue if args.autostart else None,
        },
    }
    failed = False
    try:
        with make_client() as probe:
            probe.wait_ready(timeout=30.0)
            health = probe.health()
        report["health"] = {
            "workers": health["workers"], "queue_bound": health["queue_bound"],
        }

        mix = default_mix(args.scale)
        if args.mode == "closed":
            samples, wall = closed_loop(
                make_client, mix, args.requests, args.concurrency, args.timeout
            )
        else:
            samples, wall = open_loop(
                make_client, mix, args.requests, args.rate,
                args.concurrency, args.timeout,
            )
        service = summarize(samples, wall)
        report["service"] = service
        print(
            f"service: {service['ok']}/{service['requests']} ok "
            f"({service['cached']} cached, {service['deduped']} deduped, "
            f"{service['fresh']} fresh) "
            f"{service['throughput_rps']} rps "
            f"p50 {service['p50_ms']}ms p99 {service['p99_ms']}ms"
        )
        if service["failures"]:
            print(f"FAIL: {service['failures']} service requests failed",
                  file=sys.stderr)
            failed = True

        with make_client() as probe:
            stats = probe.stats()
        report["daemon_stats"] = {
            "counters": stats["stats"]["counters"],
            "derived": stats["derived"],
        }

        if args.burst:
            jobs = fresh_jobs(args.burst, args.burst_scale, args.seed_base)
            burst_samples, burst_wall = burst(make_client, jobs, args.timeout)
            burst_report = summarize(burst_samples, burst_wall)
            # Record the seed base actually used (nonce or explicit) so a
            # run can be reproduced and honest runs are distinguishable.
            burst_report["seed_base"] = jobs[0]["workload"]["params"]["seed"]
            report["overload"] = burst_report
            print(
                f"burst: {burst_report['ok']} completed, "
                f"{burst_report['overloaded']} rejected overloaded, "
                f"{burst_report['failures']} other failures "
                f"(queue bound {health['queue_bound']})"
            )
            if burst_report["failures"]:
                print("FAIL: burst produced non-overload failures", file=sys.stderr)
                failed = True
            if not burst_report["overloaded"]:
                print("FAIL: burst past the queue bound produced no "
                      "overloaded rejections", file=sys.stderr)
                failed = True
            if not burst_report["ok"]:
                print("FAIL: burst produced no completions", file=sys.stderr)
                failed = True
            with make_client() as probe:
                if probe.health()["status"] not in ("ok", "draining"):
                    failed = True  # pragma: no cover - health is ok/draining

        if args.spawn_baseline:
            base_samples, base_wall = spawn_baseline(mix, args.spawn_baseline)
            baseline = summarize(base_samples, base_wall)
            report["spawn_baseline"] = baseline
            if baseline["throughput_rps"]:
                speedup = round(
                    service["throughput_rps"] / baseline["throughput_rps"], 2
                )
            else:  # pragma: no cover - baseline too fast to measure
                speedup = None
            report["speedup_vs_spawn"] = speedup
            print(
                f"spawn baseline: {baseline['ok']}/{baseline['requests']} ok "
                f"{baseline['throughput_rps']} rps mean {baseline['mean_ms']}ms "
                f"-> service speedup {speedup}x"
            )
            if baseline["failures"]:
                print("FAIL: spawn baseline runs failed", file=sys.stderr)
                failed = True
            if args.min_speedup and (speedup or 0) < args.min_speedup:
                print(
                    f"FAIL: speedup {speedup}x < required {args.min_speedup}x",
                    file=sys.stderr,
                )
                failed = True
    finally:
        if daemon is not None:
            try:
                with make_client(retries=0) as probe:
                    probe.shutdown()
            except ServeError:
                daemon.terminate()
            try:
                daemon.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                daemon.kill()
                daemon.wait(timeout=5)
            if daemon_log is not None and daemon_log.exists():
                report["daemon_log_tail"] = daemon_log.read_text().splitlines()[-10:]
        if tmp is not None:
            tmp.cleanup()

    if args.out is not None:
        # Wrap the raw phase sections in the schema-v1 envelope: the
        # converter maps headline stats into per-benchmark wall metrics;
        # the raw dict rides along verbatim under detail.raw.
        envelope = convert_legacy(report)
        envelope.env = collect_env()
        envelope.detail = {"raw": report}
        envelope.save(args.out)
        print(f"report written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
