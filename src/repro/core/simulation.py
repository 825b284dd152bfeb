"""The simulation orchestrator: boots a machine, installs a kernel and a
revocation strategy, wires the allocation stack, spawns the workload's
threads (plus the mrs controller), runs to completion, and collects a
:class:`~repro.core.metrics.RunResult`.

:class:`AppContext` is the API workloads program against. Its capability
load path implements the retry-on-fault loop: when the core delivers a
load-generation fault (Reloaded's barrier), the kernel handler sweeps the
page *on the application's own core* and the load re-runs — self-healing,
exactly as §4.3 describes — with the handler's cycles charged to the
application thread.
"""

from __future__ import annotations

from typing import Generator

from repro.alloc.baseline import BaselineShim
from repro.alloc.mrs import MrsShim
from repro.alloc.snmalloc import SnMalloc
from repro.core.config import RevokerKind, SimulationConfig
from repro.core.metrics import LatencySample, RunResult
from repro.errors import SimulationError
from repro.kernel.hoards import RegisterFile
from repro.kernel.kernel import Kernel
from repro.kernel.revoker import (
    CheriVokeRevoker,
    CornucopiaRevoker,
    PaintSyncRevoker,
    ReloadedRevoker,
)
from repro.machine.capability import Capability
from repro.machine.cpu import Core, ReferenceAccess
from repro.machine.machine import Machine
from repro.machine.scheduler import Sleep, Thread, ThreadState
from repro.machine.trap import LoadGenerationFault
from repro.obs.tracer import TRACER
from repro.settings import scalar_mode
from repro.workloads.base import Workload

_REVOKER_CLASSES = {
    RevokerKind.PAINT_SYNC: PaintSyncRevoker,
    RevokerKind.CHERIVOKE: CheriVokeRevoker,
    RevokerKind.CORNUCOPIA: CornucopiaRevoker,
    RevokerKind.RELOADED: ReloadedRevoker,
}


class AppContext:
    """One application thread's view of the machine and allocator."""

    def __init__(self, sim: "Simulation", name: str, core_index: int) -> None:
        self.sim = sim
        self.name = name
        self.core = sim.machine.cores[core_index]
        self.slot = sim.machine.scheduler.cores[core_index]
        self.registers = RegisterFile()
        #: The path the workload's hot loops access memory through: the
        #: core's fused entry points, or :class:`ReferenceAccess` under
        #: ``REPRO_SCALAR=1``. Bound by the simulation at each run or
        #: resume and left out of checkpoints, so both paths capture
        #: identical blobs.
        self.access: Core | ReferenceAccess = self.core
        #: The run's SnapshotSession when checkpointing is on, else None.
        #: Workloads that support snapshots poll ``snapshot.due()`` at
        #: their work-unit boundary and park on ``snapshot.barrier``.
        self.snapshot = None
        sim.kernel.register_thread(self.registers)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["access"]
        return state

    # --- Allocation ------------------------------------------------------------

    def malloc(self, nbytes: int) -> Generator:
        """Allocate ``nbytes``; returns a bounded capability."""
        cap = yield from self.sim.shim.malloc(self.core, self.slot, nbytes)
        return cap

    def free(self, cap: Capability) -> Generator:
        yield from self.sim.shim.free(self.core, self.slot, cap)

    # --- Memory ------------------------------------------------------------------

    def load_cap(self, cap: Capability) -> Generator:
        """Barriered capability load; returns the loaded capability or
        None for an untagged slot. Retries through load-generation faults,
        charging the foreground handler to this thread (§4.3)."""
        while True:
            try:
                result = self.core.load_cap(cap)
            except LoadGenerationFault as fault:
                yield self.sim.kernel.handle_lg_fault(self.core, fault)
                continue
            yield result.cycles
            return result.value

    def load_cap_inline(self, cap: Capability) -> tuple[Capability | None, int]:
        """Non-yielding variant of :meth:`load_cap` for hot workload loops:
        returns (value, cycles) so callers can batch several loads into one
        scheduler step. The cycle total includes any foreground fault
        handling, charged to this thread when the caller yields it."""
        cycles = 0
        while True:
            try:
                value, load_cycles = self.access.load_cap_at(cap, cap.address)
            except LoadGenerationFault as fault:
                cycles += self.sim.kernel.handle_lg_fault(self.core, fault)
                continue
            return value, cycles + load_cycles

    def store_cap(self, dst: Capability, value: Capability) -> Generator:
        result = self.core.store_cap(dst, value)
        yield result.cycles

    def load_data(self, cap: Capability, nbytes: int) -> Generator:
        result = self.core.load_data(cap, nbytes)
        yield result.cycles

    def store_data(self, cap: Capability, nbytes: int) -> Generator:
        result = self.core.store_data(cap, nbytes)
        yield result.cycles

    def cap_activity(self, ptes: list) -> int:
        """Apply the MMU side effects of a burst of capability stores that
        happen *inside* a modelled compute block (used by server workloads
        whose per-transaction compute stands for work containing very many
        pointer writes — simulating each store individually would dominate
        the simulation). Marks each page capability-dirty, re-dirtying it
        if the current epoch's sweep already visited it (§4.2), exactly as
        the per-store barrier in Core.store_cap does. Returns a small
        cycle charge (the stores' real cost is part of the compute block).
        """
        for pte in ptes:
            pte.cap_dirty = True
            if pte.swept_this_epoch:
                pte.redirtied = True
        return 3 * len(ptes)

    # --- Time ----------------------------------------------------------------------

    def compute(self, cycles: int) -> Generator:
        """Burn CPU without touching memory."""
        yield cycles

    def idle(self, cycles: int) -> Generator:
        """Sleep off-CPU (inter-transaction think time)."""
        yield Sleep(cycles)

    def now(self) -> int:
        """This thread's current core clock."""
        return self.slot.time

    # --- Instrumentation ------------------------------------------------------------

    def record_latency(self, label: str, begin: int, end: int) -> None:
        self.sim.latencies.append(LatencySample(label, begin, end))

    def stash_in_kernel(self, subsystem: str, cap: Capability) -> int:
        """Hand a capability to a hoarding kernel subsystem (§4.4)."""
        return self.sim.kernel.hoards.stash(subsystem, cap)

    def retrieve_from_kernel(self, subsystem: str, ticket: int) -> Capability:
        return self.sim.kernel.hoards.retrieve(subsystem, ticket)


class Simulation:
    """One workload run under one configuration."""

    def __init__(self, workload: Workload, config: SimulationConfig | None = None) -> None:
        self.config = config if config is not None else SimulationConfig()
        self.config.validate()
        self.workload = workload
        mc = self.config.machine
        self.machine = Machine(
            memory_bytes=mc.memory_bytes,
            num_cores=mc.num_cores,
            costs=mc.costs,
            cache_bytes=mc.cache_bytes,
            quantum=mc.quantum,
        )
        self.kernel = Kernel(self.machine)
        self.alloc = SnMalloc(self.kernel)
        self.latencies: list[LatencySample] = []
        kind = self.config.revoker
        policy = self.config.policy
        if policy is None:
            policy = getattr(workload, "quarantine_policy", None)
        if kind is RevokerKind.NONE:
            if self.config.custom_revoker is not None:
                raise SimulationError("custom_revoker requires a non-NONE kind")
            self.shim: BaselineShim | MrsShim = BaselineShim(self.alloc)
            self.mrs: MrsShim | None = None
        else:
            revoker_cls = self.config.custom_revoker or _REVOKER_CLASSES[kind]
            self.kernel.install_revoker(revoker_cls)
            self.mrs = MrsShim(self.alloc, self.kernel, policy)
            self.shim = self.mrs
        self._ran = False
        # Snapshot plumbing. Contexts/threads are remembered so a restore
        # can pair fresh generators with their pickled Thread shells.
        self._snapshots = None
        self._contexts: list[AppContext] = []
        self._app_threads: list[Thread] = []
        self._controller_thread: Thread | None = None
        self._restored = False
        self._resumed = False

    # --- Thread placement ----------------------------------------------------------

    def _app_core_for(self, index: int) -> int:
        """App threads occupy app_core, app_core-1, ... (the paper pins
        gRPC's two server threads to cores 2 and 3)."""
        core = self.config.app_core - index
        if core < 0:
            raise SimulationError(
                f"not enough cores for app thread {index} (app_core="
                f"{self.config.app_core})"
            )
        return core

    # --- Run ---------------------------------------------------------------------------

    def run(self, snapshots=None) -> RunResult:
        """Run to completion. ``snapshots`` (a
        :class:`~repro.snapshot.SnapshotSession`, or a
        :class:`~repro.snapshot.SnapshotPlan` to build one from) enables
        checkpoint capture at epoch-close boundaries; see docs/SNAPSHOT.md.
        """
        if self._ran:
            raise SimulationError("a Simulation can only run once")
        self._ran = True
        sched = self.machine.scheduler
        if snapshots is not None:
            self._snapshots = self._build_session(snapshots)
        if TRACER.enabled and TRACER.clock is None:
            # Hooks that have no per-core clock (quarantine, epoch ticks)
            # stamp events with the scheduler's wall clock.
            TRACER.clock = sched.current_time

        for i, (name, body) in enumerate(self.workload.thread_bodies()):
            core_index = self._app_core_for(i)
            ctx = AppContext(self, name, core_index)
            ctx.snapshot = self._snapshots
            thread = sched.spawn(name, body(ctx), core_index, stops_for_stw=True)
            self._contexts.append(ctx)
            self._app_threads.append(thread)

        if self.mrs is not None:
            rc = self.config.revoker_core
            self._controller_thread = sched.spawn(
                "mrs-controller",
                self.mrs.controller(self.machine.cores[rc], sched.cores[rc]),
                rc,
                stops_for_stw=False,
            )
        return self._finish()

    def resume(self) -> RunResult:
        """Continue a simulation restored by
        :func:`repro.snapshot.restore_simulation` to completion. The
        resulting :class:`RunResult` is bit-identical to what the
        straight-through run returns (the determinism contract)."""
        from repro.errors import SnapshotError

        if not self._restored:
            raise SnapshotError(
                "resume() is only valid on a simulation restored from a "
                "checkpoint; use run() for a fresh simulation"
            )
        if self._resumed:
            raise SimulationError("a restored Simulation can only resume once")
        self._resumed = True
        # Release the app threads parked at the snapshot barrier, exactly
        # as the straight-through run does after capturing (at_time=0 is a
        # no-op on every wake floor, so both paths continue identically).
        self.machine.scheduler.signal(self._snapshots.barrier, at_time=0)
        return self._finish()

    def _finish(self) -> RunResult:
        """Drive the scheduler to application completion (capturing at
        quiescent points when snapshots are on), drain any in-flight
        epoch, and collect the result. Common tail of run() and resume()."""
        sched = self.machine.scheduler
        scalar = scalar_mode()
        for ctx in self._contexts:
            ctx.access = ReferenceAccess(ctx.core) if scalar else ctx.core
        if self._snapshots is None:
            wall = sched.run(until=self._app_threads)
        else:
            wall = self._drive_snapshots()
        if self.mrs is not None and self.kernel.epoch.revoking:
            # The application exited mid-epoch; drain the revocation so
            # phase records and the epoch counter are complete. Wall time
            # stays at application completion (the paper's metric).
            sched.run_until_condition(lambda: not self.kernel.epoch.revoking)
        return self._collect(wall, self._app_threads, self._controller_thread)

    # --- Snapshots ---------------------------------------------------------------------

    def _build_session(self, snapshots):
        from repro.errors import SnapshotError
        from repro.snapshot.session import SnapshotPlan, SnapshotSession

        if isinstance(snapshots, SnapshotPlan):
            session = SnapshotSession(self, snapshots)
        elif isinstance(snapshots, SnapshotSession):
            session = snapshots
            if session.sim is not self:
                raise SnapshotError("SnapshotSession belongs to another simulation")
        else:
            raise SnapshotError(
                f"snapshots must be a SnapshotPlan or SnapshotSession, "
                f"got {type(snapshots).__name__}"
            )
        if not getattr(self.workload, "supports_snapshot", False):
            raise SnapshotError(
                f"workload {self.workload.name!r} does not support snapshots "
                f"(it keeps state in generator frames or speaks to external "
                f"processes); see Workload.supports_snapshot"
            )
        sched = self.machine.scheduler
        hooks = [sched.policy, sched.probe, sched.on_stw, self.kernel.epoch.on_transition]
        if self.mrs is not None:
            hooks += [self.mrs.quarantine.on_seal, self.mrs.quarantine.on_release]
        if any(h is not None for h in hooks):
            raise SnapshotError(
                "cannot snapshot with check-layer hooks installed (schedule "
                "policies, probes, and oracle callbacks are process objects "
                "a checkpoint cannot carry)"
            )
        return session

    def _snapshot_ready(self) -> bool:
        """Quiescent for capture: every app thread finished or parked at
        the snapshot barrier (at least one parked), and the mrs controller
        idle between epochs — blocked in ``revoke_requested.waiters``,
        which also proves no trigger is pending, so a fresh controller
        generator re-blocks identically after restore."""
        barrier = self._snapshots.barrier
        parked = 0
        for thread in self._app_threads:
            if thread.state is ThreadState.FINISHED:
                continue
            if thread.state is ThreadState.BLOCKED and thread in barrier.waiters:
                parked += 1
            else:
                return False
        if not parked:
            return False
        controller = self._controller_thread
        if controller is not None:
            if controller.state is not ThreadState.BLOCKED:
                return False
            if controller not in self.mrs.revoke_requested.waiters:
                return False
        return True

    def _capture_and_release(self) -> None:
        from repro.snapshot.capture import capture_simulation

        session = self._snapshots
        # Advance the cadence BEFORE pickling: the checkpoint and the
        # continuing run must agree on when the next capture is due.
        session.mark_captured()
        blob, header = capture_simulation(self)
        session.deliver(blob, header)
        self.machine.scheduler.signal(session.barrier, at_time=0)

    def _drive_snapshots(self) -> int:
        """Like ``sched.run(until=app_threads)``, but pause at snapshot
        quiescence to capture. Wall-clock equivalence: both loops check
        for completion before each pick and return ``current_time()``."""
        sched = self.machine.scheduler

        def app_done() -> bool:
            return all(
                t.state is ThreadState.FINISHED for t in self._app_threads
            )

        while True:
            wall = sched.run_until_condition(
                lambda: app_done() or self._snapshot_ready(),
                max_steps=500_000_000,
            )
            if app_done():
                return wall
            self._capture_and_release()

    # --- Metrics -----------------------------------------------------------------------

    def _collect(
        self,
        wall: int,
        app_threads: list[Thread],
        controller: Thread | None,
    ) -> RunResult:
        result = RunResult(workload=self.workload.name, revoker=self.config.revoker)
        result.wall_cycles = wall
        result.app_cpu_cycles = sum(t.busy_cycles for t in app_threads)
        by_core: dict[str, int] = {}
        for thread in self.machine.scheduler.threads:
            name = self.machine.cores[thread.core.index].name
            by_core[name] = by_core.get(name, 0) + thread.busy_cycles
        result.cpu_cycles_by_core = by_core
        result.bus_by_source = self.machine.bus.snapshot()
        result.peak_rss_bytes = self.kernel.address_space.peak_rss_bytes
        result.stw_pauses = [r.duration for r in self.machine.scheduler.stw_records]
        result.latencies = list(self.latencies)

        revoker = self.kernel.revoker
        if revoker is not None:
            result.epoch_records = list(revoker.records)
            result.revocations = self.kernel.epoch.completed
            result.caps_revoked = revoker.total_caps_revoked()
            result.pages_swept = revoker.total_pages_swept()
            if isinstance(revoker, _REVOKER_CLASSES[RevokerKind.RELOADED]):
                result.foreground_faults = revoker.foreground_faults
                result.spurious_faults = revoker.spurious_faults
        if self.mrs is not None:
            samples = self.mrs.sampled_alloc_bytes
            result.mean_alloc_bytes = (sum(samples) / len(samples)) if samples else float(
                self.alloc.allocated_bytes
            )
            result.sum_freed_bytes = self.mrs.quarantine.lifetime_bytes
            qsamples = self.mrs.quarantine.sampled_bytes
            result.mean_quarantine_bytes = (
                sum(qsamples) / len(qsamples) if qsamples else 0.0
            )
            result.blocked_operations = self.mrs.blocked_operations
        else:
            result.sum_freed_bytes = self.alloc.total_freed_bytes
            result.mean_alloc_bytes = float(self.alloc.allocated_bytes)
        if TRACER.enabled:
            self._fold_metrics(result)
        return result

    def _fold_metrics(self, result: RunResult) -> None:
        """Fold per-epoch accounting into the tracer's registry and
        snapshot it onto the result (observability runs only)."""
        registry = TRACER.metrics
        for record in result.epoch_records:
            registry.histogram("epoch/stw_cycles").observe(record.stw_cycles())
            registry.histogram("epoch/concurrent_cycles").observe(
                record.concurrent_cycles()
            )
            registry.histogram("epoch/fault_cycles").observe(record.fault_cycles)
            registry.histogram("epoch/pages_swept").observe(record.pages_swept)
            registry.histogram("epoch/caps_revoked").observe(record.caps_revoked)
            registry.counter("epochs/faults").inc(record.fault_count)
        for pause in result.stw_pauses:
            registry.histogram("stw/pause_cycles").observe(pause)
        for core in self.machine.cores:
            registry.counter(f"cache/{core.name}/hits").inc(core.cache.hits)
            registry.counter(f"cache/{core.name}/misses").inc(core.cache.misses)
        registry.counter("bus/transactions").inc(
            self.machine.bus.total_transactions()
        )
        result.metrics = registry.to_dict()
