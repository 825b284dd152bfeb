"""Load generator for the simulation service (``repro serve bench``).

Drives closed-loop (``--mode closed``: N threads issue requests
back-to-back) or open-loop (``--mode open``: requests fire on a fixed
schedule at ``--rate`` rps regardless of completions) traffic over a
workload x strategy mix, and reports throughput, client-side p50/p99
and the daemon's own stats snapshot. It exits non-zero if any request
fails; the CI serve-smoke job runs it against a real daemon.

``--autostart`` makes the run self-contained: it forks a daemon on a
temporary Unix socket, benches it, and drains it afterwards.

``--out`` writes the report as plain JSON (``config``, ``health``,
``service``, ``daemon_stats``, plus ``env`` from
:func:`repro.perf.report.collect_env`). Host time for serving is
benchmarked by ``perfbench/run.py --workload serve-mixed``.
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
from repro.perf.report import collect_env
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


def _spawn_env() -> dict[str, str]:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


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
    # Popen duplicates the descriptor into the child; the parent's copy
    # is closed on the way out.
    with open(log_path, "w") as log:
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
                        help="request count")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="concurrent client connections")
    parser.add_argument("--mode", choices=["closed", "open"], default="closed")
    parser.add_argument("--rate", type=float, default=20.0,
                        help="open-loop arrival rate (requests/s)")
    parser.add_argument("--scale", type=int, default=2048,
                        help="mix workload scale divisor (bigger = faster jobs)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request client timeout")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    if args.socket and args.host:
        parser.error("give --socket or --host, not both")
    if not args.socket and not args.host and not args.autostart:
        parser.error("need --socket, --host/--port, or --autostart")

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
        report["env"] = collect_env()
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
