"""Cooperative discrete-event scheduler with a stop-the-world protocol.

Threads are Python generators. Everything a thread yields is either a
cycle count (time consumed on its core) or one of the control objects
defined here:

- :class:`Sleep` — advance time without consuming CPU (idle gaps between
  pgbench transactions, client think time);
- :class:`Block` — wait on an :class:`Event` (epoch waits, quarantine-full
  back-pressure);
- :class:`StopWorld` / :class:`ResumeWorld` — the revocation syscall's
  world-stop rendezvous. Only threads with ``stops_for_stw`` set are
  stopped (application threads); the revoker's own thread keeps running.

Cores have independent clocks; the scheduler always advances the
least-advanced core that has runnable work, so clocks never drift by more
than one operation. Idle cores fast-forward when work arrives. A per-core
round-robin with a preemption quantum models timesharing — which is what
lets the background revoker steal time from gRPC's unpinned server
threads (§5.3, §7.7).

Two optional, check-oriented attachment points (both ``None`` by default,
costing one attribute test per step; see :mod:`repro.check`):

- :attr:`Scheduler.policy` — a schedule policy that resolves the choice
  among equal-time candidate cores in :meth:`Scheduler._pick` (and, with a
  nonzero ``window``, among near-equal ones). With no policy installed the
  pick is the hard-wired first-minimal-core rule, bit-identical to the
  historical behaviour.
- :attr:`Scheduler.probe` — a :class:`SchedulerProbe` observing dispatch,
  step completion, sleeper promotion, and stop-the-world transitions; the
  temporal-safety oracles hang off these.

Convention used throughout the package: every kernel or allocator entry
point that can consume simulated time or block is itself a generator,
composed with ``yield from``; leaf helpers return plain cycle counts that
the caller yields.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Protocol

from repro.errors import SimulationError
from repro.machine.cpu import Core
from repro.obs.tracer import TRACER

#: Default preemption quantum, cycles (1 ms at 2.5 GHz).
DEFAULT_QUANTUM = 2_500_000

#: What a thread body may yield.
Yieldable = "int | Sleep | Block | StopWorld | ResumeWorld"
ThreadBody = Generator


class Sleep:
    """Advance this thread's wake time by ``cycles`` without busying a core."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise SimulationError(f"negative sleep {cycles}")
        self.cycles = cycles


class Event:
    """A broadcast condition: ``signal`` wakes every current waiter.

    Waiters must re-check their condition after waking (standard condition
    variable discipline); the epoch counter and quarantine policies use
    this via wait-loops.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.waiters: list[Thread] = []

    def __repr__(self) -> str:  # pragma: no cover
        return f"Event({self.name}, waiters={len(self.waiters)})"


class Block:
    """Yielded to wait on an :class:`Event`."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class StopWorld:
    """Yielded by the revoker: stop all ``stops_for_stw`` threads.

    The yielding thread resumes (with the world stopped) once every such
    thread has reached a safe point; the scheduler charges the rendezvous
    by fast-forwarding the requester to the latest stopped core's clock.
    """

    __slots__ = ()


class ResumeWorld:
    """Yielded by the revoker to restart the world."""

    __slots__ = ()


class SchedulerProbe:
    """Observer interface for schedule checking (all hooks no-ops here).

    A probe sees every scheduling decision as it happens: thread dispatch
    (with the core clock it will run at), step completion, which sleepers
    were promoted together, and stop-the-world hold/release sets. The
    oracles in :mod:`repro.check.oracle` subclass this; the scheduler
    guards every call site with ``if self.probe is not None`` so the
    disabled cost is one attribute test.
    """

    def on_pick(self, slot: "CoreSlot", thread: "Thread", begin: int) -> None:
        """``thread`` is about to run on ``slot`` at core time ``begin``
        (``slot.time`` still holds the pre-fast-forward clock)."""

    def on_step(self, thread: "Thread") -> None:
        """``thread`` just completed one step (its core clock is final)."""

    def on_promote(self, slot: "CoreSlot", batch: "list[Thread]") -> None:
        """``batch`` (in enqueue order) was promoted from sleep onto
        ``slot``'s run queue in one scheduling decision."""

    def on_stw_begin(self, begin: int, held: "list[Thread]") -> None:
        """A stop-the-world began at ``begin``, holding ``held``."""

    def on_stw_end(self, end: int, released: "list[Thread]") -> None:
        """The stop-the-world ended at ``end``, releasing ``released``."""


class SchedulePolicyLike(Protocol):
    """What :attr:`Scheduler.policy` must look like (duck-typed so the
    policies can live in :mod:`repro.check` without an import cycle)."""

    #: Candidate cores within this many cycles of the minimal effective
    #: time are offered to :meth:`choose` (0 = exact ties only).
    window: int

    def choose(self, candidates: "list[CoreSlot]") -> int:
        """Return an index into ``candidates`` (≥ 2 entries)."""
        ...


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    STOPPED = "stopped"  # held by stop-the-world
    FINISHED = "finished"


@dataclass
class StwRecord:
    """One stop-the-world episode, for pause-time reporting (fig. 9)."""

    begin: int
    end: int

    def __post_init__(self) -> None:
        # Phase accounting assumes monotone clocks; a pause that "ends
        # before it began" would silently poison every pause statistic.
        if self.end < self.begin:
            raise SimulationError(
                f"stop-the-world ends at {self.end} before it began at {self.begin}"
            )

    @property
    def duration(self) -> int:
        return self.end - self.begin


class Thread:
    """A simulated thread: a generator body pinned to one core."""

    def __init__(
        self,
        name: str,
        body: ThreadBody,
        core: "CoreSlot",
        *,
        stops_for_stw: bool = True,
    ) -> None:
        self.name = name
        self.body = body
        self.core = core
        self.stops_for_stw = stops_for_stw
        self.state = ThreadState.RUNNABLE
        #: Earliest core time at which this thread may next run.
        self.wake_floor: int = 0
        #: Pre-STW state to restore at resume (for held sleepers/blockers).
        self._held_state: ThreadState | None = None
        #: Wokens-while-stopped: event fired during STW, run at resume.
        self._pending_wake = False
        self.busy_cycles: int = 0
        self._credit: int = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Thread({self.name}, {self.state.value}, core={self.core.index})"


class CoreSlot:
    """Scheduler-side state for one core: its clock and run queue."""

    def __init__(self, index: int, core: Core, quantum: int = DEFAULT_QUANTUM) -> None:
        self.index = index
        self.core = core
        self.time: int = 0
        self.quantum = quantum
        self.runq: deque[Thread] = deque()


class Scheduler:
    """The machine's thread scheduler and global clock."""

    def __init__(self, cores: Iterable[Core], quantum: int = DEFAULT_QUANTUM) -> None:
        self.cores = [CoreSlot(i, c, quantum) for i, c in enumerate(cores)]
        self.threads: list[Thread] = []
        self._sleeping: list[Thread] = []
        self.stw_active = False
        self._stw_requester: Thread | None = None
        self._stw_begin: int = 0
        self.stw_records: list[StwRecord] = []
        #: Called with each StwRecord as it completes (metrics hook).
        self.on_stw: Callable[[StwRecord], None] | None = None
        #: Optional schedule policy (see :mod:`repro.check.policy`): an
        #: object with a ``window`` attribute (cycles of tolerated clock
        #: drift among candidates) and ``choose(candidates) -> index``.
        #: ``None`` keeps the hard-wired first-minimal-core pick.
        self.policy: "SchedulePolicyLike | None" = None
        #: Optional :class:`SchedulerProbe` observing every decision.
        self.probe: SchedulerProbe | None = None
        self._steps = 0

    # --- Thread management ---------------------------------------------------

    def spawn(
        self,
        name: str,
        body: ThreadBody,
        core_index: int,
        *,
        stops_for_stw: bool = True,
    ) -> Thread:
        """Create a thread pinned to ``core_index`` and make it runnable."""
        slot = self.cores[core_index]
        thread = Thread(name, body, slot, stops_for_stw=stops_for_stw)
        thread.wake_floor = slot.time
        self.threads.append(thread)
        if self.stw_active and thread.stops_for_stw:
            thread.state = ThreadState.STOPPED
            thread._pending_wake = True
        else:
            slot.runq.append(thread)
        return thread

    def current_time(self) -> int:
        """The latest core clock (the simulation's wall clock so far)."""
        return max(slot.time for slot in self.cores)

    # --- Events ---------------------------------------------------------------

    def signal(self, event: Event, at_time: int | None = None) -> None:
        """Wake every waiter of ``event``.

        ``at_time`` defaults to the current wall clock; woken threads
        cannot run earlier than it.
        """
        when = self.current_time() if at_time is None else at_time
        waiters, event.waiters = event.waiters, []
        for thread in waiters:
            thread.wake_floor = max(thread.wake_floor, when)
            if thread.state is ThreadState.STOPPED:
                thread._pending_wake = True
            elif thread.state is ThreadState.BLOCKED:
                if self.stw_active and thread.stops_for_stw:
                    # Held by STW: becomes runnable at world resume.
                    thread.state = ThreadState.STOPPED
                    thread._pending_wake = True
                else:
                    thread.state = ThreadState.RUNNABLE
                    thread.core.runq.append(thread)

    # --- Stop-the-world ---------------------------------------------------------

    def _stop_world(self, requester: Thread) -> None:
        # Rendezvous invariant: the requester is charged up to the clock of
        # every core with RUNNABLE work to stop — those threads must reach a
        # safe point. SLEEPING and BLOCKED threads are already off-CPU at a
        # safe point, so their cores add nothing to the rendezvous; in
        # exchange, _resume_world floors *every* held thread (whatever its
        # held state) at the pause's end, so nothing held here can ever
        # execute inside the recorded [begin, end] window.
        if self.stw_active:
            raise SimulationError("nested stop-the-world")
        self.stw_active = True
        self._stw_requester = requester
        rendezvous = requester.core.time
        held: list[Thread] = []
        for thread in self.threads:
            if thread is requester or not thread.stops_for_stw:
                continue
            if thread.state is ThreadState.RUNNABLE:
                rendezvous = max(rendezvous, thread.core.time)
                thread.core.runq.remove(thread)
                thread._held_state = ThreadState.RUNNABLE
                thread.state = ThreadState.STOPPED
                held.append(thread)
            elif thread.state is ThreadState.SLEEPING:
                self._sleeping.remove(thread)
                thread._held_state = ThreadState.SLEEPING
                thread.state = ThreadState.STOPPED
                held.append(thread)
            elif thread.state is ThreadState.BLOCKED:
                thread._held_state = ThreadState.BLOCKED
                thread.state = ThreadState.STOPPED
                held.append(thread)
        requester.core.time = max(requester.core.time, rendezvous)
        self._stw_begin = requester.core.time
        if self.probe is not None:
            self.probe.on_stw_begin(self._stw_begin, held)
        if TRACER.enabled:
            stopped = sum(
                1 for t in self.threads if t.state is ThreadState.STOPPED
            )
            TRACER.emit("stw.begin", ts=self._stw_begin, stopped=stopped)

    def _resume_world(self, requester: Thread) -> None:
        if not self.stw_active or self._stw_requester is not requester:
            raise SimulationError("resume-world without matching stop-the-world")
        end = requester.core.time
        released: list[Thread] = []
        for thread in self.threads:
            if thread.state is not ThreadState.STOPPED:
                continue
            held = thread._held_state
            thread._held_state = None
            released.append(thread)
            if held is ThreadState.RUNNABLE or thread._pending_wake:
                thread._pending_wake = False
                thread.state = ThreadState.RUNNABLE
                thread.wake_floor = max(thread.wake_floor, end)
                thread.core.runq.append(thread)
            elif held is ThreadState.SLEEPING:
                thread.state = ThreadState.SLEEPING
                thread.wake_floor = max(thread.wake_floor, end)
                self._sleeping.append(thread)
            elif held is ThreadState.BLOCKED:
                thread.state = ThreadState.BLOCKED
                # A later signal() may carry an at_time that predates this
                # pause (a lagging core's view); without raising the floor
                # here, the woken thread could run *inside* the recorded
                # STW window it was held through.
                thread.wake_floor = max(thread.wake_floor, end)
            else:  # spawned during STW with no pending wake
                thread.state = ThreadState.RUNNABLE
                thread.wake_floor = max(thread.wake_floor, end)
                thread.core.runq.append(thread)
        self.stw_active = False
        self._stw_requester = None
        record = StwRecord(begin=self._stw_begin, end=end)
        self.stw_records.append(record)
        if self.probe is not None:
            self.probe.on_stw_end(end, released)
        if TRACER.enabled:
            TRACER.emit("stw.end", ts=end, duration=record.duration)
        if self.on_stw is not None:
            self.on_stw(record)

    # --- Main loop -----------------------------------------------------------------

    def _promote_due_sleepers(self) -> None:
        if not self._sleeping:
            return
        still = []
        promoted: list[Thread] = []
        for thread in self._sleeping:
            slot = thread.core
            if slot.runq and thread.wake_floor > slot.time:
                still.append(thread)
                continue
            # Due now, or the core is idle (it fast-forwards to the wake).
            promoted.append(thread)
        self._sleeping[:] = still
        if not promoted:
            return
        # Enqueue in wake order, not insertion order: an idle core
        # fast-forwards its clock to the queue head's wake_floor, so a
        # later-waking sleeper queued first would drag every earlier
        # sleeper behind it past its own wake time.
        promoted.sort(key=lambda t: t.wake_floor)
        batches: dict[int, list[Thread]] = {}
        for thread in promoted:
            thread.state = ThreadState.RUNNABLE
            thread.core.runq.append(thread)
            batches.setdefault(thread.core.index, []).append(thread)
        if self.probe is not None:
            for index, batch in batches.items():
                self.probe.on_promote(self.cores[index], batch)

    def _pick(self) -> Thread | None:
        self._promote_due_sleepers()
        policy = self.policy
        best: CoreSlot | None = None
        best_time = 0
        if policy is None:
            for slot in self.cores:
                if not slot.runq:
                    continue
                head = slot.runq[0]
                effective = max(slot.time, head.wake_floor)
                if best is None or effective < best_time:
                    best = slot
                    best_time = effective
            if best is None:
                return None
        else:
            best = self._pick_with_policy(policy)
            if best is None:
                return None
        head = best.runq[0]
        if self.probe is not None:
            self.probe.on_pick(best, head, max(best.time, head.wake_floor))
        best.time = max(best.time, head.wake_floor)
        return head

    def _pick_with_policy(self, policy: "SchedulePolicyLike") -> CoreSlot | None:
        """Delegate the choice among (near-)equal-time candidate cores to
        the installed policy. With ``window == 0`` the candidate set is
        exactly the cores tied at the minimal effective time, so a policy
        that always answers 0 reproduces the default pick bit for bit."""
        candidates: list[CoreSlot] = []
        times: list[int] = []
        for slot in self.cores:
            if not slot.runq:
                continue
            candidates.append(slot)
            times.append(max(slot.time, slot.runq[0].wake_floor))
        if not candidates:
            return None
        cutoff = min(times) + policy.window
        eligible = [s for s, t in zip(candidates, times) if t <= cutoff]
        if len(eligible) == 1:
            return eligible[0]
        return eligible[policy.choose(eligible)]

    def _rotate(self, thread: Thread) -> None:
        slot = thread.core
        if slot.runq and slot.runq[0] is thread:
            slot.runq.rotate(-1)
        thread._credit = 0

    def _step(self, thread: Thread) -> None:
        slot = thread.core
        try:
            item = next(thread.body)
        except StopIteration:
            thread.state = ThreadState.FINISHED
            if slot.runq and slot.runq[0] is thread:
                slot.runq.popleft()
            elif thread in slot.runq:
                slot.runq.remove(thread)
            if self.stw_active and self._stw_requester is thread:
                raise SimulationError(
                    f"thread {thread.name} exited with the world stopped"
                )
            if self.probe is not None:
                self.probe.on_step(thread)
            return
        if isinstance(item, (int, float)):
            cycles = int(item)
            if cycles < 0:
                raise SimulationError(f"{thread.name} yielded negative cycles")
            slot.time += cycles
            thread.busy_cycles += cycles
            thread._credit += cycles
            if thread._credit >= slot.quantum:
                self._rotate(thread)
        elif isinstance(item, Sleep):
            slot.runq.popleft()
            thread.state = ThreadState.SLEEPING
            thread.wake_floor = slot.time + item.cycles
            thread._credit = 0
            self._sleeping.append(thread)
        elif isinstance(item, Block):
            slot.runq.popleft()
            thread.state = ThreadState.BLOCKED
            thread._credit = 0
            item.event.waiters.append(thread)
        elif isinstance(item, StopWorld):
            # An STW episode is a scheduling boundary: the requester's
            # accumulated quantum credit must not leak across it, or a
            # revoker sharing a core gets preempted mid-sweep for work it
            # did *before* the pause (and vice versa at resume).
            thread._credit = 0
            self._stop_world(thread)
        elif isinstance(item, ResumeWorld):
            thread._credit = 0
            self._resume_world(thread)
        else:
            raise SimulationError(
                f"{thread.name} yielded unsupported item {item!r}"
            )
        if self.probe is not None:
            self.probe.on_step(thread)

    def run_until_condition(self, condition: Callable[[], bool], max_steps: int = 10_000_000) -> int:
        """Step the simulation until ``condition()`` holds (used to drain
        an in-flight revocation epoch after the application exits)."""
        for _ in range(max_steps):
            if condition():
                return self.current_time()
            thread = self._pick()
            if thread is None:
                raise SimulationError("no runnable threads while draining")
            self._step(thread)
        raise SimulationError("run_until_condition exceeded max_steps")

    def run(
        self,
        until: Iterable[Thread] | None = None,
        max_steps: int = 500_000_000,
    ) -> int:
        """Run until every thread in ``until`` finishes (default: every
        thread). Returns the final wall clock. Daemon-style threads that
        never finish are simply abandoned when ``until`` is satisfied.
        """
        # With no explicit target set, "done" means every thread —
        # including ones spawned while running — has finished.
        targets = list(until) if until is not None else None
        # FINISHED is terminal and only the stepped thread can reach it, so
        # the done test can change only after a step that finished its
        # thread or spawned one.
        recheck = True
        for _ in range(max_steps):
            pending = self.threads if targets is None else targets
            if recheck and all(t.state is ThreadState.FINISHED for t in pending):
                return self.current_time()
            thread = self._pick()
            if thread is None:
                unfinished = [t.name for t in pending if t.state is not ThreadState.FINISHED]
                raise SimulationError(
                    f"deadlock: no runnable or sleeping threads; waiting on {unfinished}"
                )
            spawned = len(self.threads)
            self._step(thread)
            self._steps += 1
            recheck = (
                thread.state is ThreadState.FINISHED or len(self.threads) != spawned
            )
        raise SimulationError(f"exceeded max_steps={max_steps}")
