#!/usr/bin/env python
"""Serving-layer benchmark: warm daemon vs process-per-request.

A thin entry point over :mod:`repro.serve.bench` with the acceptance
demo's defaults baked in: fork a daemon (2 warm workers, queue bound
16), push 60 mixed requests through it closed-loop, fire a 32-request
burst of unique jobs past the admission bound (which must produce
structured ``overloaded`` rejections, not hangs), and time 5 of the same
requests the old way — one ``python -m repro run`` subprocess each.

Writes ``BENCH_serve.json`` (a schema-v1 perf report; raw phase
sections under ``detail.raw``) in the repo root and exits non-zero if
any request fails, the burst is not rejected, or the service beats the
spawn baseline by less than 5x. Re-recording over a report from a
different commit requires ``--force`` (passed through, like every other
flag, to ``repro serve bench``). The committed baseline was produced
by::

    PYTHONPATH=src python benchmarks/bench_serve.py --force
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.bench import main  # noqa: E402

DEFAULTS = [
    "--autostart",
    "--workers", "2",
    "--queue", "16",
    "--requests", "60",
    "--concurrency", "4",
    "--burst", "32",
    "--spawn-baseline", "5",
    "--min-speedup", "5.0",
    "--out", str(REPO_ROOT / "BENCH_serve.json"),
]

if __name__ == "__main__":
    # Caller flags append after the defaults, so they win on conflict.
    raise SystemExit(main(DEFAULTS + sys.argv[1:]))
