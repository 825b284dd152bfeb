"""The generic heap-churn engine behind the SPEC surrogates.

A churn workload builds a live heap of pointer-bearing objects, then
cycles address space through the allocator — free one object, allocate a
replacement, rewire some pointers, chase some pointers, touch some data,
compute — until a target volume of memory has been freed. The knobs in
:class:`ChurnProfile` (live heap size, churn volume, object size mix,
pointer density, access rates) are what distinguish ``omnetpp`` from
``gobmk``: the revokers never see benchmark names, only the allocation
and capability traffic the profile induces.

Objects carry their capability slots in their own first granules, so
capability density per page — what the sweep pays for — follows from the
size mix and slot counts. Freed objects' slots keep their (stale) tagged
capabilities in memory until revocation clears them or reuse zeroes them,
exactly the population a sweep must test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.alloc.quarantine import QuarantinePolicy
from repro.machine.capability import Capability

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.core.simulation import AppContext
from repro.machine.costs import GRANULE_BYTES
from repro.machine.scheduler import Block
from repro.workloads.base import Workload


@dataclass(frozen=True)
class SizeMix:
    """A discrete object-size distribution (bytes, relative weight)."""

    sizes: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ValueError("sizes and weights must be same nonzero length")

    def mean(self) -> float:
        total = sum(self.weights)
        return sum(s * w for s, w in zip(self.sizes, self.weights)) / total

    def sample(self, rng: random.Random) -> int:
        """Draw one size. Hot path: manual inverse-CDF over the (few)
        buckets beats random.choices' per-call setup."""
        cdf = getattr(self, "_cdf", None)
        if cdf is None:
            total = sum(self.weights)
            acc, cdf = 0.0, []
            for w in self.weights:
                acc += w / total
                cdf.append(acc)
            object.__setattr__(self, "_cdf", cdf)
        x = rng.random()
        for size, edge in zip(self.sizes, cdf):
            if x <= edge:
                return size
        return self.sizes[-1]


@dataclass
class ChurnProfile:
    """Everything that characterizes one synthetic batch workload."""

    name: str
    #: Target live heap, bytes (already scaled).
    heap_bytes: int
    #: Total bytes to push through free() during churn (already scaled).
    churn_bytes: int
    size_mix: SizeMix
    #: Capability slots per object (placed in its leading granules).
    pointer_slots: int = 2
    #: Capability stores per churn iteration (pointer rewiring rate).
    cap_stores_per_iter: int = 2
    #: Capability loads per churn iteration (pointer-chase rate).
    cap_loads_per_iter: int = 2
    #: Data bytes read when a chased pointer is dereferenced.
    deref_bytes: int = 64
    #: Plain data accesses per iteration: (loads, stores, bytes each).
    data_accesses_per_iter: tuple[int, int, int] = (4, 2, 64)
    #: Pure compute cycles per iteration (sets the memory-churn *rate*
    #: and hence revocations/second; table 2).
    compute_per_iter: int = 2_000
    #: Extra data+compute iterations with no allocator activity, run
    #: after the churn phase. Benchmarks like bzip2 and sjeng are long
    #: computations over a heap they barely churn; this phase gives them
    #: their compute-dominated character.
    steady_iterations: int = 0
    seed: int = 1

    def iterations(self) -> int:
        return max(1, int(self.churn_bytes / self.size_mix.mean()))


class _Obj:
    """A live heap object with its capability slot cursors precomputed
    (slot capabilities are reused across iterations — deriving a fresh
    cursor per access is the simulator's hottest path otherwise)."""

    __slots__ = ("cap", "size", "nslots", "slot_caps")

    def __init__(self, cap: Capability, size: int, nslots: int) -> None:
        self.cap = cap
        self.size = size
        self.nslots = nslots
        self.slot_caps = tuple(
            cap.with_address(cap.base + i * GRANULE_BYTES) for i in range(nslots)
        )


class ChurnTask:
    """Resumable execution state for :meth:`ChurnWorkload.run`.

    Everything the churn program needs across yields lives here rather
    than in generator frame locals, because generator frames cannot be
    pickled: a snapshot captures this object (it hangs off the workload,
    which hangs off the simulation), and a restored run re-enters
    :meth:`ChurnWorkload.run` with a *fresh* generator that picks up from
    this state bit-identically.
    """

    __slots__ = (
        "rng", "objs", "live_bytes", "freed", "iteration", "phase",
        "steady_left",
    )

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.objs: list[_Obj] = []
        self.live_bytes = 0
        self.freed = 0
        self.iteration = 0
        #: "build" -> "churn" -> "steady" -> "done".
        self.phase = "build"
        self.steady_left = 0


class ChurnWorkload(Workload):
    """A single-threaded batch program driven by a :class:`ChurnProfile`."""

    supports_snapshot = True

    def __init__(
        self,
        profile: ChurnProfile,
        quarantine_policy: QuarantinePolicy | None = None,
    ) -> None:
        self.profile = profile
        self.name = profile.name
        self.quarantine_policy = quarantine_policy
        #: Filled in after a run, for tests: iterations actually executed.
        self.iterations_run = 0
        self.stale_loads = 0
        #: Live execution state; created on first entry to :meth:`run` and
        #: kept on self so checkpoints capture it.
        self._task: ChurnTask | None = None

    # --- Object helpers ---------------------------------------------------------

    def _alloc_obj(self, ctx: "AppContext", rng: random.Random, objs: list[_Obj]) -> Generator:
        size = self.profile.size_mix.sample(rng)
        cap = yield from ctx.malloc(size)
        nslots = min(self.profile.pointer_slots, size // GRANULE_BYTES)
        obj = _Obj(cap, size, nslots)
        # Wire this object into the graph: point its slots at random
        # existing objects (establishes capability density).
        cycles = 0
        nobjs = len(objs)
        store_cap_at = ctx.access.store_cap_at
        for i in range(nslots):
            if not nobjs:
                break
            target = objs[int(rng.random() * nobjs)]
            slot = obj.slot_caps[i]
            cycles += store_cap_at(slot, slot.address, target.cap)
        if cycles:
            yield cycles
        objs.append(obj)
        return obj

    # --- The program -----------------------------------------------------------------

    def run(self, ctx: "AppContext") -> Generator:
        profile = self.profile
        task = self._task
        if task is None:
            task = self._task = ChurnTask(random.Random(profile.seed))

        # Phase dispatch loop. One pass = one unit of work (an allocation
        # in the build phase, an iteration in the churn/steady phases), so
        # a resumed run re-enters exactly at a unit boundary. The snapshot
        # park sits at the loop top: both the straight path (generator
        # resumes at the Block yield, `continue`s) and the resumed path
        # (fresh generator enters the loop) perform one `due()` check
        # before the next unit — identical control flow, identical RNG.
        while True:
            snap = ctx.snapshot
            if snap is not None and snap.due():
                yield Block(snap.barrier)
                continue
            if task.phase == "build":
                # Build phase: grow the live heap to its target.
                if task.live_bytes < profile.heap_bytes:
                    obj = yield from self._alloc_obj(ctx, task.rng, task.objs)
                    task.live_bytes += obj.size
                else:
                    task.phase = "churn"
            elif task.phase == "churn":
                if task.freed < profile.churn_bytes and len(task.objs) > 2:
                    task.iteration += 1
                    yield from self._churn_iteration(ctx, task)
                else:
                    task.phase = "steady"
                    task.steady_left = profile.steady_iterations
            elif task.phase == "steady":
                # Steady phase: compute and data traffic with no allocator
                # activity (bzip2/sjeng-style compute dominance).
                if task.steady_left > 0:
                    task.steady_left -= 1
                    yield from self._steady_iteration(ctx, task)
                else:
                    task.phase = "done"
            else:
                break

        self.iterations_run = task.iteration

    def _churn_iteration(self, ctx: "AppContext", task: ChurnTask) -> Generator:
        """One churn iteration: free a victim, allocate a replacement,
        rewire pointers, chase pointers, touch data, compute."""
        profile = self.profile
        objs = task.objs
        data_loads, data_stores, data_bytes = profile.data_accesses_per_iter
        rnd = task.rng.random
        access = ctx.access

        # Free a random object; its outgoing capabilities and any
        # capabilities pointing *to* it go stale in memory.
        victim = objs.pop(int(rnd() * len(objs)))
        yield from ctx.free(victim.cap)
        task.freed += victim.size

        # Replace it.
        new_obj = yield from self._alloc_obj(ctx, task.rng, objs)
        ctx.registers.set(task.iteration % 8, new_obj.cap)

        cycles = 0
        nobjs = len(objs)
        # Pointer rewiring: store capabilities into random slots.
        for _ in range(profile.cap_stores_per_iter):
            holder = objs[int(rnd() * nobjs)]
            if holder.nslots == 0:
                continue
            target = objs[int(rnd() * nobjs)]
            dst = holder.slot_caps[int(rnd() * holder.nslots)]
            cycles += access.store_cap_at(dst, dst.address, target.cap)
        if cycles:
            yield cycles

        # Pointer chase: load capabilities (the barriered path) and
        # dereference the live ones. Cycles accumulate into one yield;
        # the fault-retry loop charges foreground handling inline.
        cycles = 0
        for _ in range(profile.cap_loads_per_iter):
            holder = objs[int(rnd() * nobjs)]
            if holder.nslots == 0:
                continue
            src = holder.slot_caps[int(rnd() * holder.nslots)]
            loaded, load_cycles = ctx.load_cap_inline(src)
            cycles += load_cycles
            # Draw the offset unconditionally so the RNG stream (and
            # hence the whole trace) is identical whether or not the
            # slot was revoked under this strategy.
            off_frac = rnd()
            if loaded is None or not loaded.tag:
                self.stale_loads += 1
                continue
            nbytes = min(profile.deref_bytes, loaded.length)
            if nbytes > 0:
                # Dereference at a random offset: the touched-line set
                # scales with heap size, not object count.
                off = int(off_frac * (loaded.length - nbytes + 1))
                cycles += access.load_data_at(loaded, loaded.base + off, nbytes)
        if cycles:
            yield cycles

        # Plain data traffic and compute.
        cycles = 0
        for _ in range(data_loads):
            obj = objs[int(rnd() * nobjs)]
            nbytes = min(data_bytes, obj.size)
            off = int(rnd() * (obj.size - nbytes + 1))
            cycles += access.load_data_at(obj.cap, obj.cap.base + off, nbytes)
        for _ in range(data_stores):
            obj = objs[int(rnd() * nobjs)]
            nbytes = min(data_bytes, obj.size)
            start = obj.nslots * GRANULE_BYTES
            room = obj.size - start - nbytes
            if room > 0:
                start += int(rnd() * room) & ~15
            if start + nbytes <= obj.size:
                cycles += access.store_data_at(obj.cap, obj.cap.base + start, nbytes)
        yield cycles + profile.compute_per_iter

    def _steady_iteration(self, ctx: "AppContext", task: ChurnTask) -> Generator:
        profile = self.profile
        objs = task.objs
        data_loads, _, data_bytes = profile.data_accesses_per_iter
        rnd = task.rng.random
        load_data_at = ctx.access.load_data_at
        cycles = profile.compute_per_iter
        nobjs = len(objs)
        for _ in range(data_loads):
            obj = objs[int(rnd() * nobjs)]
            nbytes = min(data_bytes, obj.size)
            off = int(rnd() * (obj.size - nbytes + 1))
            cycles += load_data_at(obj.cap, obj.cap.base + off, nbytes)
        yield cycles
