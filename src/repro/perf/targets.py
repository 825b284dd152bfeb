"""The built-in benchmark catalog.

Micro-targets for every hot path the repo has optimized so far — the
vectorized sweep scan (PR 2's 7.5x), the batched cache span arithmetic,
the scheduler step loop, result serialization, snapshot save/restore —
plus traced end-to-end runs whose deterministic simulated-cycle metrics
(wall cycles, STW cycles, bus transactions, folded from the obs
:class:`~repro.obs.metrics.MetricsRegistry`) gate hard in CI while the
wall-clock series only warn.

The ``sweep`` suite (``sweep.scan``, ``sweep.revoke``, ``cache.span``,
``mutator.churn``) times each hot loop twice per repetition, on
identically built state: the vectorized or fused path as ``wall_s`` and
the scalar reference (``REPRO_SCALAR=1``) as ``scalar_wall_s``. CI
requires the best fast-path sample to be no slower than the best scalar
one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

from repro import settings
from repro.core.config import RevokerKind, SimulationConfig
from repro.core.experiment import run_experiment
from repro.core.metrics import LatencySample, RunResult
from repro.core.simulation import Simulation
from repro.errors import PerfError
from repro.kernel.kernel import Kernel
from repro.kernel.revoker import CheriVokeRevoker
from repro.kernel.revoker.base import EpochRecord
from repro.machine.cache import Bus, Cache
from repro.machine.costs import GRANULE_BYTES, PAGE_BYTES
from repro.machine.machine import Machine
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import tracing
from repro.perf.registry import Probe, benchmark
from repro.runner.serialize import dumps_result
from repro.workloads import spec
from repro.workloads.churn import ChurnWorkload

# --- The sweep rig ----------------------------------------------------------


@dataclass
class SweepRig:
    """A kernel with a capability-dense heap ready to sweep."""

    machine: Machine
    kernel: Kernel
    revoker: CheriVokeRevoker
    heap: object
    core: object
    ptes: list
    pages: int
    caps_per_page: int


def build_sweep_rig(pages: int, caps_per_page: int) -> SweepRig:
    """A ``pages``-page heap with ``caps_per_page`` capabilities planted
    per page at even granule spacing."""
    machine = Machine(memory_bytes=max(8 << 20, 2 * pages * PAGE_BYTES))
    kernel = Kernel(machine)
    revoker = kernel.install_revoker(CheriVokeRevoker)
    heap, _ = kernel.address_space.mmap(pages * PAGE_BYTES)
    core = machine.cores[2]
    stride = PAGE_BYTES // caps_per_page
    if stride % GRANULE_BYTES:
        raise PerfError(
            f"caps_per_page {caps_per_page} does not granule-align "
            f"(stride {stride})"
        )
    for page in range(pages):
        for i in range(caps_per_page):
            addr = heap.base + page * PAGE_BYTES + i * stride
            target = heap.derive(addr, GRANULE_BYTES)
            core.store_cap(heap.with_address(addr), target)
    ptes = [
        machine.pagetable.require(heap.base // PAGE_BYTES + p)
        for p in range(pages)
    ]
    return SweepRig(
        machine, kernel, revoker, heap, core, ptes, pages, caps_per_page
    )


def sweep_scan(rig: SweepRig) -> EpochRecord:
    """One probe-everything sweep over the rig (nothing condemned)."""
    record = EpochRecord(epoch=0)
    for pte in rig.ptes:
        rig.revoker.sweep_page(rig.core, pte, record)
    return record


def sweep_condemn(rig: SweepRig) -> None:
    """Paint every other planted capability, so a sweep also runs the
    tag-clearing store."""
    stride = PAGE_BYTES // rig.caps_per_page
    for page in range(rig.pages):
        for i in range(0, rig.caps_per_page, 2):
            addr = rig.heap.base + page * PAGE_BYTES + i * stride
            rig.kernel.shadow.paint(addr, GRANULE_BYTES)


def _sweep_sizes(mode: str) -> tuple[int, int]:
    return (8, 64) if mode == "smoke" else (64, 128)


@contextmanager
def _timed(probe: Probe, scalar: bool) -> Iterator[None]:
    """Time the block as ``wall_s`` on the vectorized paths, or as
    ``scalar_wall_s`` on the scalar reference; ``REPRO_SCALAR`` is
    restored afterwards."""
    with settings.override("scalar", scalar):
        with probe.time("scalar_wall_s" if scalar else "wall_s"):
            yield


def _sweep_both(probe: Probe, condemn: bool) -> None:
    """Sweep a fresh rig on each path; the vectorized pass records the
    sweep's bus transactions."""
    pages, caps = _sweep_sizes(probe.mode)
    for scalar in (False, True):
        rig = build_sweep_rig(pages, caps)
        if condemn:
            sweep_condemn(rig)
        before = rig.machine.bus.total_transactions()
        with _timed(probe, scalar):
            sweep_scan(rig)
        if not scalar:
            probe.record(
                "bus_transactions", rig.machine.bus.total_transactions() - before
            )


@benchmark(
    "sweep.scan",
    suites=("smoke", "full", "sweep"),
    description="probe-all-tagged-granules sweep over a cap-dense heap",
    smoke_reps=3,
    full_reps=7,
)
def bench_sweep_scan(probe: Probe) -> None:
    _sweep_both(probe, condemn=False)


@benchmark(
    "sweep.revoke",
    suites=("full", "sweep"),
    description="sweep with half the allocations painted (tag-clear path)",
    smoke_reps=2,
    full_reps=5,
)
def bench_sweep_revoke(probe: Probe) -> None:
    _sweep_both(probe, condemn=True)


def cache_stream(cache: Cache, pages: int) -> int:
    """Stream ``pages`` whole pages through ``cache``; total lines missed."""
    missed = 0
    for vpn in range(pages):
        missed += cache.access_page(vpn)
    return missed


@benchmark(
    "cache.span",
    suites=("smoke", "full", "sweep"),
    description="batched cache span arithmetic under sweep-shaped streaming",
    smoke_reps=3,
    full_reps=7,
)
def bench_cache_span(probe: Probe) -> None:
    # A 16-page cache streaming a larger footprint: steady-state
    # evictions, the background sweep's memory traffic pattern.
    pages = 64 if probe.mode == "smoke" else 256
    for scalar in (False, True):
        cache = Cache(Bus(), "perf", capacity_bytes=16 * PAGE_BYTES)
        with _timed(probe, scalar):
            missed = cache_stream(cache, pages)
        if not scalar:
            probe.record("lines_missed", missed)


@benchmark(
    "mutator.churn",
    suites=("smoke", "full", "sweep"),
    description="fused vs reference mutator path: reduced omnetpp.ref, scale 256",
    smoke_reps=3,
    full_reps=5,
)
def bench_mutator_churn(probe: Probe) -> None:
    # omnetpp.ref is one of the two inputs that dominate the SPEC sweep;
    # its churn volume is cut so a repetition takes seconds, not minutes.
    base = spec.workload("omnetpp", "ref", scale=256, seed=1)
    fraction = 300 if probe.mode == "smoke" else 50
    profile = replace(base.profile, churn_bytes=base.profile.churn_bytes // fraction)
    kinds = (RevokerKind.NONE, RevokerKind.RELOADED)

    def build() -> list[Simulation]:
        return [
            Simulation(
                ChurnWorkload(profile, quarantine_policy=base.quarantine_policy),
                SimulationConfig(revoker=kind),
            )
            for kind in kinds
        ]

    sims = build()
    with _timed(probe, scalar=False):
        fused = [sim.run() for sim in sims]
    oracles = build()
    with _timed(probe, scalar=True):
        reference = [sim.run() for sim in oracles]
    for kind, sim, result, oracle in zip(kinds, sims, fused, reference):
        if dumps_result(result) != dumps_result(oracle):
            raise PerfError(
                f"mutator.churn {kind.value}: the fused path's result differs "
                "from the reference path's"
            )
        accesses = sum(c.cache.hits + c.cache.misses for c in sim.machine.cores)
        probe.record(f"wall_cycles_{kind.value}", result.wall_cycles)
        probe.record(f"cache_accesses_{kind.value}", accesses)


@benchmark(
    "sched.step",
    suites=("smoke", "full"),
    description="cooperative scheduler step loop (revocation-free run)",
    smoke_reps=3,
    full_reps=5,
)
def bench_sched_step(probe: Probe) -> None:
    # Under the NONE revoker every simulated cycle is scheduler + workload
    # stepping — the closest thing to a pure scheduler microbenchmark that
    # still exercises the real run loop.
    scale = 4096 if probe.mode == "smoke" else 1024
    workload = spec.workload("gobmk", "13x13", scale=scale, seed=1)
    with probe.time():
        result = run_experiment(workload, RevokerKind.NONE)
    probe.record("wall_cycles", result.wall_cycles)
    probe.record("cpu_cycles", result.total_cpu_cycles)


@benchmark(
    "serialize.roundtrip",
    suites=("smoke", "full"),
    description="RunResult JSON round-trip (campaign cache wire format)",
    smoke_reps=3,
    full_reps=7,
)
def bench_serialize_roundtrip(probe: Probe) -> None:
    from repro.runner.serialize import dumps_result, loads_result

    result = RunResult(workload="perf.synthetic", revoker=RevokerKind.RELOADED)
    result.wall_cycles = 123_456_789
    result.cpu_cycles_by_core = {f"core{i}": 10_000_000 + i for i in range(4)}
    result.bus_by_source = {f"core{i}": 50_000 + i for i in range(4)}
    result.stw_pauses = list(range(100, 4100, 40))
    result.latencies = [
        LatencySample(label=f"tx{i}", begin=i * 1000, end=i * 1000 + 777)
        for i in range(500)
    ]
    rounds = 20 if probe.mode == "smoke" else 100
    text = dumps_result(result)
    with probe.time():
        for _ in range(rounds):
            text = dumps_result(loads_result(text))
    probe.record("bytes", len(text))


@benchmark(
    "snapshot.roundtrip",
    suites=("smoke", "full"),
    description="checkpoint capture + restore/resume of a small run",
    smoke_reps=2,
    full_reps=3,
    warmup=0,
)
def bench_snapshot_roundtrip(probe: Probe) -> None:
    from repro.snapshot import SnapshotPlan, SnapshotSession, restore_simulation

    scale = 2048 if probe.mode == "smoke" else 1024
    workload = spec.workload("hmmer", "retro", scale=scale, seed=1)
    cfg = SimulationConfig(revoker=RevokerKind.RELOADED)
    cfg.machine.memory_bytes = 32 << 20
    sim = Simulation(workload, cfg)
    session = SnapshotSession(
        sim, SnapshotPlan(every_epochs=1, max_captures=1)
    )
    with probe.time("save_s"):
        sim.run(snapshots=session)
    if not session.captured:
        raise PerfError(
            "snapshot.roundtrip run completed before an epoch closed; "
            "lower the scale so at least one checkpoint lands"
        )
    blob = session.captured[0]
    probe.record("blob_bytes", len(blob))
    with probe.time("restore_s"):
        resumed, _ = restore_simulation(blob)
        result = resumed.resume()
    probe.record("resumed_wall_cycles", result.wall_cycles)


@benchmark(
    "campaign.warmstart",
    suites=("smoke", "full"),
    description="four-revoker sweep: warm-start prefix fork vs cold runs",
    smoke_reps=2,
    full_reps=3,
    warmup=0,
)
def bench_campaign_warmstart(probe: Probe) -> None:
    """The tentpole win, measured in deterministic simulated work: run
    the paper's four-revoker sweep cold, then once more forking the
    three siblings from the leader's epoch-0 prefix capture
    (docs/WARMSTART.md). Warm work = leader + sum(follower - prefix),
    since everything before the capture point is simulated exactly once.
    The quarantine floor is raised so the shared warmup dominates the
    run — the regime the warm start targets — while still completing
    revocation epochs under every strategy."""
    from repro.alloc.quarantine import QuarantinePolicy
    from repro.runner.serialize import dumps_result
    from repro.snapshot import SnapshotSession, fork_simulation, prefix_plan

    kinds = (
        RevokerKind.PAINT_SYNC,
        RevokerKind.CHERIVOKE,
        RevokerKind.CORNUCOPIA,
        RevokerKind.RELOADED,
    )

    def build(kind: RevokerKind) -> Simulation:
        workload = spec.workload("hmmer", "retro", scale=1024, seed=1)
        cfg = SimulationConfig(revoker=kind)
        cfg.machine.memory_bytes = 32 << 20
        cfg.policy = QuarantinePolicy(min_bytes=512 << 10)
        return Simulation(workload, cfg)

    cold: dict[RevokerKind, str] = {}
    cold_cycles = 0
    with probe.time("cold_s"):
        for kind in kinds:
            result = build(kind).run()
            if result.revocations < 1:
                raise PerfError(
                    f"campaign.warmstart {kind.value} run completed without "
                    "revoking; lower the quarantine floor"
                )
            cold[kind] = dumps_result(result)
            cold_cycles += result.wall_cycles

    with probe.time("warm_s"):
        leader = build(kinds[0])
        session = SnapshotSession(leader, prefix_plan(0))
        leader_result = leader.run(snapshots=session)
        if not session.captured:
            raise PerfError(
                "campaign.warmstart leader captured no prefix; the first "
                "trigger fired before any quiescent poll"
            )
        blob = session.captured[-1]
        capture_wall = session.headers[-1]["wall"]
        if dumps_result(leader_result) != cold[kinds[0]]:
            raise PerfError(
                "campaign.warmstart leader result diverged from its cold run"
            )
        warm_cycles = leader_result.wall_cycles
        for kind in kinds[1:]:
            forked, _ = fork_simulation(blob, kind)
            result = forked.resume()
            if dumps_result(result) != cold[kind]:
                raise PerfError(
                    f"campaign.warmstart {kind.value} warm result diverged "
                    "from its cold run"
                )
            warm_cycles += result.wall_cycles - capture_wall

    speedup = cold_cycles / warm_cycles
    if speedup < 1.8:
        raise PerfError(
            f"campaign.warmstart speedup {speedup:.3f}x below the 1.8x "
            "acceptance floor"
        )
    probe.record("cold_cycles", cold_cycles)
    probe.record("warm_cycles", warm_cycles)
    probe.record("speedup_milli", round(speedup * 1000))
    probe.record("prefix_blob_bytes", len(blob))


def _traced_run(probe: Probe, kind: RevokerKind) -> None:
    """End-to-end run under the tracer; fold the MetricsRegistry's
    simulated-cycle accounting in as deterministic metrics."""
    scale = 2048 if probe.mode == "smoke" else 512
    workload = spec.workload("hmmer", "retro", scale=scale, seed=1)
    with tracing():
        with probe.time():
            result = run_experiment(workload, kind)
    probe.record("wall_cycles", result.wall_cycles)
    probe.record("cpu_cycles", result.total_cpu_cycles)
    probe.record("bus_transactions", result.total_bus_transactions)
    probe.record("pages_swept", result.pages_swept)
    probe.record("faults", result.foreground_faults)
    folded = MetricsRegistry.flatten_dict(result.metrics)
    probe.record("stw_cycles", folded.get("epoch/stw_cycles.sum", 0.0))
    probe.record(
        "concurrent_cycles", folded.get("epoch/concurrent_cycles.sum", 0.0)
    )


@benchmark(
    "run.reloaded",
    suites=("smoke", "full"),
    description="traced end-to-end churn run under the Reloaded barrier",
    smoke_reps=3,
    full_reps=5,
)
def bench_run_reloaded(probe: Probe) -> None:
    _traced_run(probe, RevokerKind.RELOADED)


@benchmark(
    "run.cornucopia",
    suites=("full",),
    description="traced end-to-end churn run under Cornucopia",
    full_reps=5,
)
def bench_run_cornucopia(probe: Probe) -> None:
    _traced_run(probe, RevokerKind.CORNUCOPIA)


@benchmark(
    "run.cherivoke",
    suites=("full",),
    description="traced end-to-end churn run under CHERIvoke",
    full_reps=5,
)
def bench_run_cherivoke(probe: Probe) -> None:
    _traced_run(probe, RevokerKind.CHERIVOKE)
