"""Parallel job execution: one supervised pool of warm workers, shared
by campaigns and the serve daemon.

A :class:`Worker` forks once — inheriting the fully imported simulator
and every runtime-registered workload kind — and then loops ``recv job
-> execute_job -> send envelope`` until it receives the drain sentinel.
Results cross the pipe as serialized envelopes
(:mod:`repro.runner.serialize`), the same representation the cache
stores, so pooled, cached, and in-process execution are interchangeable
bit-for-bit. :func:`run_jobs` drives ``min(max_workers, pending)``
workers for the length of one call; the serve daemon
(:mod:`repro.serve.server`) keeps a :class:`WorkerPool` for its
lifetime. Every process this package creates is created here.

Fault policy (one rule, :meth:`Worker.recover`, for both callers):

- a **crashed** worker (killed, segfaulted, exited without reporting)
  or a **timed-out** job gets its worker killed and respawned, and the
  job is retried once; a second failure is terminal;
- a job that raises an ordinary Python exception is terminal at once —
  the simulation is deterministic, so a retry would fail identically;
- a binding serve ``deadline_s`` is terminal at once;
- a terminal failure never cuts the batch short: every other job
  settles (and is cached) first, then :class:`CampaignJobError` is
  raised, carrying the worker's traceback;
- if worker processes cannot be started at all (no ``fork``/``spawn``,
  sandboxed CI, ``REPRO_JOBS=1``), execution falls back to the plain
  in-process loop, the reference semantics;
- a :class:`KeyboardInterrupt` (or any other fatal error) kills and
  joins every live worker before re-raising — an interrupted campaign
  leaves no orphaned children behind.

Batch planning — fingerprints, cache hits, same-fingerprint dedup and
warm-start prefix gating — is :func:`repro.runner.plan.plan_batch`.

Environment knobs: ``REPRO_JOBS`` (worker count; ``0`` = CPU count;
default ``1`` = in-process) and ``REPRO_JOB_TIMEOUT`` (seconds per job;
default: none).
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Sequence

from repro import settings
from repro.core.metrics import RunResult
from repro.runner.cache import ResultCache
from repro.runner.campaign import (
    Job,
    execute_job,
    job_from_dict,
    pop_warm_start_note,
)
from repro.runner.plan import BatchPlan, CampaignJobError, plan_batch
from repro.runner.progress import CampaignProgress, env_echo
from repro.runner.serialize import result_from_dict, result_to_dict
from repro.snapshot.prefix import PrefixStore, prefix_store_dir

__all__ = [
    "CampaignJobError",
    "Worker",
    "WorkerPool",
    "default_max_workers",
    "default_timeout_s",
    "run_jobs",
]

#: Sent down a worker's pipe to make it leave its loop.
_DRAIN = None


def default_max_workers() -> int:
    """Worker count from ``REPRO_JOBS`` (0 = all CPUs; default 1)."""
    return settings.max_workers()


def default_timeout_s() -> float | None:
    return settings.job_timeout_s()


def _mp_context():
    """Prefer fork (inherits runtime-registered workload kinds); fall
    back to the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _worker_main(conn: Connection, supervisor_end: Connection) -> None:
    """Worker-process body: run jobs until drained or orphaned.

    A request is a job dict (:meth:`Job.to_dict`); the reply is
    ``("ok", envelope, warm_start_note)`` or
    ``("err", exc_name, exc_text, traceback)``.

    A finished simulation is garbage held in reference cycles (its
    simulated memory arrays among them) that only a full collection
    frees, so each job's garbage is collected once its reply is sent and
    a warm worker's RSS stays about one job's. The inherited, imported
    heap never becomes garbage; freezing it keeps those collections
    cheap.
    """
    # The fork inherited the supervisor's end of this pipe: close it, or
    # a supervisor that dies without draining us is never seen as EOF.
    supervisor_end.close()
    gc.freeze()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # the supervisor died or closed us
            break
        if message is _DRAIN:
            break
        fatal = False
        try:
            envelope = result_to_dict(execute_job(job_from_dict(message)))
            reply: tuple = ("ok", envelope, pop_warm_start_note())
        except BaseException as exc:  # report everything before dying
            reply = ("err", type(exc).__name__, str(exc), traceback.format_exc())
            fatal = not isinstance(exc, Exception)  # KeyboardInterrupt etc.
        try:
            conn.send(reply)
        except (OSError, ValueError):
            break
        if fatal:
            break
        gc.collect()
    conn.close()


class Worker:
    """One warm worker process and its duplex pipe."""

    def __init__(self, wid: int) -> None:
        self.id = wid
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn: Connection | None = None
        self.restarts = -1  # the first spawn() brings this to 0
        self.spawn()

    def spawn(self) -> None:
        """Fork the worker (raises OSError where processes cannot start)."""
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, parent_conn),
            daemon=True,
            name=f"repro-worker-{self.id}",
        )
        try:
            process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        self.process = process
        self.conn = parent_conn
        self.restarts += 1

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def exitcode(self) -> int | None:
        return self.process.exitcode if self.process is not None else None

    def submit(self, job: Job) -> None:
        """Ship one job down the pipe (OSError/ValueError if the worker is
        gone — a crash, as far as the fault rule is concerned)."""
        assert self.conn is not None
        self.conn.send(job.to_dict())

    def signal(self, kill: bool = False) -> None:
        """First phase of a stop: kill outright, or ask to drain."""
        if kill and self.process is not None:
            with contextlib.suppress(OSError):
                self.process.kill()
        elif self.conn is not None:
            with contextlib.suppress(OSError, ValueError):
                self.conn.send(_DRAIN)

    def stop(self, timeout: float = 5.0) -> None:
        """Second phase: close the pipe and reap, killing a straggler."""
        if self.conn is not None:
            with contextlib.suppress(OSError):
                self.conn.close()
            self.conn = None
        if self.process is not None:
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5)
            self.process = None

    def respawn(self) -> None:
        self.signal(kill=True)
        self.stop()
        self.spawn()

    def recover(self, attempt: int, *, terminal: bool = False) -> bool:
        """The fault rule for a crash or timeout: kill and respawn this
        worker; True when the job it held gets its one retry (a first
        attempt that did not overrun a binding deadline)."""
        self.respawn()
        return attempt == 0 and not terminal


class WorkerPool:
    """A fixed set of warm workers."""

    def __init__(self, size: int) -> None:
        self.workers: list[Worker] = []
        try:
            for wid in range(size):
                self.workers.append(Worker(wid))
        except BaseException:
            self.stop(kill=True)
            raise

    def __len__(self) -> int:
        return len(self.workers)

    @property
    def alive(self) -> int:
        return sum(1 for w in self.workers if w.alive)

    @property
    def restarts(self) -> int:
        return sum(w.restarts for w in self.workers)

    def stop(self, *, kill: bool = False, timeout: float = 5.0) -> None:
        # Two-phase so an interrupt (^C) cannot orphan workers: signal
        # every worker first, then join — exits overlap, and a second
        # interrupt mid-join still finds everyone already stopping.
        try:
            for worker in self.workers:
                worker.signal(kill)
        finally:
            for worker in self.workers:
                worker.stop(timeout=timeout)


@dataclass
class _Running:
    index: int
    deadline: float | None
    started: float
    attempt: int


def run_jobs(
    jobs: Sequence[Job],
    *,
    max_workers: int | None = None,
    cache: ResultCache | None = None,
    timeout_s: float | None = None,
    progress: CampaignProgress | None = None,
) -> list[RunResult]:
    """Execute every job; returns results aligned with ``jobs``.

    Cache hits are satisfied without executing anything; fresh results
    are written back under their fingerprint. With ``max_workers=1`` the
    whole batch runs in-process, byte-identical to calling
    :func:`~repro.runner.campaign.execute_job` in a loop.
    """
    if max_workers is None:
        max_workers = default_max_workers()
    if timeout_s is None:
        timeout_s = default_timeout_s()
    if progress is None:
        progress = CampaignProgress(len(jobs), echo=env_echo())
    if progress.workers is None:
        progress.workers = max_workers
    root = prefix_store_dir()
    plan = plan_batch(
        jobs,
        cache=cache,
        progress=progress,
        warm_start=root is not None,
        stored=PrefixStore(root) if root is not None else (),
    )

    leftovers = plan.pending
    if leftovers and max_workers > 1:
        leftovers = _run_pooled(plan, max_workers, timeout_s)
    # In-process path: REPRO_JOBS=1, pool unavailable, or pool leftovers.
    # Job order keeps every gate leader ahead of the followers it holds.
    for i in sorted(leftovers):
        began = time.monotonic()
        try:
            result = execute_job(jobs[i])
        except Exception as exc:
            plan.fail(i, f"{type(exc).__name__}: {exc}", exc)
            continue
        plan.settle(
            i, result, elapsed=time.monotonic() - began, warm=pop_warm_start_note()
        )
    return plan.outcome()


def _run_pooled(plan: BatchPlan, max_workers: int, timeout_s: float | None) -> list[int]:
    """Drain the plan's pending jobs through warm workers.

    Held warm-start followers join the queue when their gate leader
    settles. Returns the indices that must run in-process instead (the
    pool could not start, or lost every worker).
    """
    try:
        pool = WorkerPool(min(max_workers, len(plan.pending)))
    except OSError:
        return plan.pending
    queue = plan.ready()
    idle = list(pool.workers)
    running: dict[Worker, _Running] = {}

    def start(worker: Worker, index: int, attempt: int) -> None:
        now = time.monotonic()
        running[worker] = _Running(
            index, (now + timeout_s) if timeout_s else None, now, attempt
        )
        try:
            worker.submit(plan.jobs[index])
        except (OSError, ValueError):
            fault(worker, "worker pipe closed")

    def fault(worker: Worker, reason: str) -> None:
        entry = running.pop(worker)
        describe = plan.jobs[entry.index].describe()
        try:
            retry = worker.recover(entry.attempt)
        except OSError:  # cannot respawn: retire the worker
            pool.workers.remove(worker)
            queue.insert(0, entry.index)
            return
        if retry:
            plan.progress.job_retried(describe, reason)
            start(worker, entry.index, attempt=1)
        else:
            idle.append(worker)
            queue.extend(plan.fail(entry.index, f"failed twice: {reason}"))

    try:
        while queue or running:
            while queue and idle:
                start(idle.pop(), queue.pop(0), attempt=0)
            if not running:  # every worker retired
                break
            # Block briefly; settle every worker that replied, died, or
            # ran past its deadline.
            now = time.monotonic()
            wait_for = min(
                [0.25]
                + [max(0.0, e.deadline - now) for e in running.values() if e.deadline]
            )
            ready = set(connection_wait([w.conn for w in running], timeout=wait_for))
            now = time.monotonic()
            for worker, entry in list(running.items()):
                if worker.conn in ready:
                    try:
                        reply: Any = worker.conn.recv()
                    except (EOFError, OSError):  # pipe closed, nothing sent
                        worker.process.join(timeout=5)
                        fault(worker, f"worker exited (code {worker.exitcode})")
                        continue
                    del running[worker]
                    idle.append(worker)
                    if reply[0] == "ok":
                        queue.extend(plan.settle(
                            entry.index,
                            result_from_dict(reply[1]),
                            elapsed=now - entry.started,
                            warm=reply[2],
                        ))
                    else:
                        _, name, text, trace = reply
                        reason = f"raised {name}: {text}"
                        queue.extend(plan.fail(entry.index, reason, trace))
                elif entry.deadline is not None and now >= entry.deadline:
                    fault(worker, f"timeout after {now - entry.started:.1f}s")
    except BaseException:
        pool.stop(kill=True)
        raise
    pool.stop()
    return queue + [i for group in plan.held.values() for i in group]
