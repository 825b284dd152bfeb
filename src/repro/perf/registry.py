"""The benchmark catalog: ``@benchmark``-registered targets and probes.

Every continuously-tracked performance target registers itself here with
a dotted name (``sweep.scan``, ``snapshot.roundtrip``) and the suites it
belongs to (``smoke`` runs on every PR, ``full`` nightly, ``sweep``
the sweep hot loops timed vectorized and scalar). A target is a plain
function taking a :class:`Probe`; the runner calls it once per
repetition and the probe collects what it measures:

- ``probe.time()`` — a context manager timing a **wall-clock** region
  (noisy; the regression gate only warns on these);
- ``probe.record(name, value)`` — a **deterministic** metric (simulated
  cycles, bus transactions, byte counts; bit-identical across hosts, so
  the gate fails hard on these).

Metric kinds matter downstream: the detector in
:mod:`repro.perf.regression` treats ``deterministic`` series exactly and
``wall`` series statistically (median/MAD + bootstrap CI).
"""

from __future__ import annotations

import fnmatch
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro import settings
from repro.errors import PerfError

#: Metric kind for bit-identical simulated quantities (gated hard).
DETERMINISTIC = "deterministic"
#: Metric kind for host wall-clock timings (warn-only).
WALL = "wall"

#: The suites the CI workflows run (others are ad-hoc tags).
KNOWN_SUITES = ("smoke", "full", "sweep")

#: Environment knob: multiply every deterministic sample by this factor.
#: Exists so the regression gate itself can be exercised end-to-end
#: (``REPRO_PERF_INJECT=2.0 python -m repro bench run --suite smoke
#: --compare`` must exit non-zero); documented in docs/BENCHMARKING.md.
INJECT_ENV = "REPRO_PERF_INJECT"


class Probe:
    """Per-repetition metric collector handed to each target."""

    def __init__(self, mode: str = "smoke") -> None:
        #: ``smoke`` or ``full`` — targets pick working-set sizes off this.
        self.mode = mode
        #: metric name -> (kind, value) for this repetition.
        self.metrics: dict[str, tuple[str, float]] = {}
        self._inject = settings.perf_inject()

    def record(self, name: str, value: float, kind: str = DETERMINISTIC) -> None:
        """Record one metric value for this repetition."""
        if kind not in (DETERMINISTIC, WALL):
            raise PerfError(f"unknown metric kind {kind!r}")
        if kind == DETERMINISTIC and self._inject is not None:
            value = value * self._inject
        if name in self.metrics:
            raise PerfError(f"metric {name!r} recorded twice in one repetition")
        self.metrics[name] = (kind, float(value))

    @contextmanager
    def time(self, name: str = "wall_s") -> Iterator[None]:
        """Time a wall-clock region into metric ``name`` (kind ``wall``)."""
        began = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - began, kind=WALL)


@dataclass(frozen=True)
class BenchmarkDef:
    """One registered target."""

    name: str
    fn: Callable[[Probe], None]
    suites: tuple[str, ...]
    description: str
    #: Default repetition counts (overridable from the CLI).
    smoke_reps: int = 3
    full_reps: int = 10
    warmup: int = 1
    #: Free-form metadata recorded into the report.
    config: dict[str, Any] = field(default_factory=dict)

    def reps_for(self, mode: str) -> int:
        return self.smoke_reps if mode == "smoke" else self.full_reps


_REGISTRY: dict[str, BenchmarkDef] = {}


def benchmark(
    name: str,
    suites: tuple[str, ...] = ("full",),
    description: str = "",
    smoke_reps: int = 3,
    full_reps: int = 10,
    warmup: int = 1,
    **config: Any,
) -> Callable[[Callable[[Probe], None]], Callable[[Probe], None]]:
    """Register a benchmark target in the catalog (import-time)."""

    def register(fn: Callable[[Probe], None]) -> Callable[[Probe], None]:
        if name in _REGISTRY:
            raise PerfError(f"benchmark {name!r} registered twice")
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = BenchmarkDef(
            name=name,
            fn=fn,
            suites=tuple(suites),
            description=description or (doc_lines[0] if doc_lines else ""),
            smoke_reps=smoke_reps,
            full_reps=full_reps,
            warmup=warmup,
            config=dict(config),
        )
        return fn

    return register


def _ensure_loaded() -> None:
    # The built-in targets self-register on import; do it lazily so that
    # importing repro.perf does not drag the whole simulator in.
    from repro.perf import targets  # noqa: F401


def catalog() -> dict[str, BenchmarkDef]:
    """Every registered benchmark, by name (sorted)."""
    _ensure_loaded()
    return dict(sorted(_REGISTRY.items()))


def select(suite: str | None = None, pattern: str | None = None) -> list[BenchmarkDef]:
    """The targets of one suite, optionally filtered by a glob pattern."""
    _ensure_loaded()
    defs = [
        d
        for d in _REGISTRY.values()
        if suite is None or suite in d.suites
    ]
    if pattern is not None:
        defs = [d for d in defs if fnmatch.fnmatch(d.name, pattern)]
    if not defs:
        known = ", ".join(sorted(_REGISTRY)) or "none registered"
        raise PerfError(
            f"no benchmarks match suite={suite!r} pattern={pattern!r} "
            f"(catalog: {known})"
        )
    return sorted(defs, key=lambda d: d.name)
