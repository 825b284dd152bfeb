"""Continuous benchmarking: registry, runner, baselines, regression gate.

The paper's argument is quantitative — load-barrier revocation wins only
while sweep/scan overheads stay inside tight bounds — so the repo's perf
trajectory is measured, stored, and enforced rather than hand-committed:

- :mod:`repro.perf.registry` — the ``@benchmark`` catalog and
  :class:`Probe` (deterministic vs wall-clock metric kinds);
- :mod:`repro.perf.targets` — built-in micro-targets (sweep scan and
  revoke plus cache span streaming, each timed on the vectorized path and
  on the scalar reference; scheduler step, serialize round-trip,
  snapshot save/restore) plus traced end-to-end runs;
- :mod:`repro.perf.runner` — warmup/repetition control, env pinning,
  :class:`~repro.perf.report.PerfReport` (schema v1) emission;
- :mod:`repro.perf.baselines` — the content-addressed store under
  ``perf/baselines/`` with record/compare semantics;
- :mod:`repro.perf.regression` — the MAD + bootstrap-CI detector
  classifying each metric ``improved``/``ok``/``noisy``/``regressed``.

``python -m repro bench run/compare/baseline/list`` is the CLI, and the
only producer of perf reports in the repo; the CI ``perf-gate`` job
fails on regressed deterministic-cycle metrics and only warns on
wall-clock noise (docs/BENCHMARKING.md).
"""

from __future__ import annotations

from repro.perf.baselines import BaselineStore
from repro.perf.registry import (
    DETERMINISTIC,
    INJECT_ENV,
    WALL,
    BenchmarkDef,
    Probe,
    benchmark,
    catalog,
    select,
)
from repro.perf.regression import (
    IMPROVED,
    MISSING,
    NEW,
    NOISY,
    OK,
    REGRESSED,
    Comparison,
    MetricComparison,
    Thresholds,
    bootstrap_ci_median,
    compare_reports,
    mad,
)
from repro.perf.report import (
    SCHEMA_VERSION,
    BenchmarkResult,
    MetricSeries,
    PerfReport,
    check_overwrite,
    collect_env,
    git_sha,
)
from repro.perf.runner import Runner

__all__ = [
    "DETERMINISTIC",
    "IMPROVED",
    "INJECT_ENV",
    "MISSING",
    "NEW",
    "NOISY",
    "OK",
    "REGRESSED",
    "SCHEMA_VERSION",
    "WALL",
    "BaselineStore",
    "BenchmarkDef",
    "BenchmarkResult",
    "Comparison",
    "MetricComparison",
    "MetricSeries",
    "PerfReport",
    "Probe",
    "Runner",
    "Thresholds",
    "benchmark",
    "bootstrap_ci_median",
    "catalog",
    "check_overwrite",
    "collect_env",
    "compare_reports",
    "git_sha",
    "mad",
    "select",
]
