"""Batch planning and settlement, written once for every executor.

Before anything executes, :func:`plan_batch` turns a job list into a
:class:`BatchPlan`: every job is fingerprinted, local cache hits are
answered on the spot, jobs sharing a fingerprint fold onto one leader,
and — with warm-start on — each group of leaders sharing a prefix key
becomes one gate leader plus held followers that may run only once the
leader has settled (its run captured the prefix the rest fork from).

Executors only decide *where* a leader runs. The local pool
(:mod:`repro.runner.pool`) and the multi-node coordinator
(:mod:`repro.dist.coordinator`) both report each leader's outcome
through :meth:`BatchPlan.settle` or :meth:`BatchPlan.fail`, which write
the cache, fan the result out to duplicates, report progress, and hand
back the followers the leader was holding. :meth:`BatchPlan.outcome`
raises :class:`CampaignJobError` only after every job has settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Container, Sequence

from repro.core.metrics import RunResult
from repro.errors import ReproError
from repro.runner.cache import ResultCache, job_fingerprint
from repro.runner.campaign import Job, prefix_eligible
from repro.runner.progress import CampaignProgress
from repro.runner.serialize import result_from_dict, result_to_dict
from repro.snapshot.prefix import prefix_divergence_epoch, prefix_key


class CampaignJobError(ReproError):
    """A campaign job failed (worker exception, repeated crash, or
    repeated timeout)."""


@dataclass
class BatchPlan:
    """One batch's fingerprints, results and dependencies."""

    jobs: Sequence[Job]
    cache: ResultCache | None
    progress: CampaignProgress
    fingerprints: list[str] = field(default_factory=list)
    results: list[RunResult | None] = field(default_factory=list)
    #: Fingerprint leaders that must execute, in job order.
    pending: list[int] = field(default_factory=list)
    #: Leader -> later jobs with the same fingerprint (they get a copy).
    dups: dict[int, list[int]] = field(default_factory=dict)
    #: Warm-start gate leader -> the pending leaders it holds back.
    held: dict[int, list[int]] = field(default_factory=dict)
    #: Warm-start gate leader -> its group's prefix key.
    gate_keys: dict[int, str] = field(default_factory=dict)
    #: Terminal failures: (leader, reason, cause).
    failures: list[tuple[int, str, Any]] = field(default_factory=list)
    #: Pending leaders not yet settled.
    outstanding: int = 0

    def ready(self) -> list[int]:
        """Pending leaders no gate holds back, in job order."""
        waiting = {i for group in self.held.values() for i in group}
        return [i for i in self.pending if i not in waiting]

    def settle(
        self,
        index: int,
        result: RunResult,
        *,
        envelope: dict[str, Any] | None = None,
        elapsed: float,
        cached: bool = False,
        warm: str | None = None,
    ) -> list[int]:
        """Record a leader's result (``envelope``: its serialized form,
        when it arrived as one): write it to the cache, copy it to the
        leader's duplicates, and release its held followers."""
        self.results[index] = result
        job = self.jobs[index]
        if self.cache is not None:
            if envelope is None:
                self.cache.put(self.fingerprints[index], result, job=job)
            else:
                self.cache.put_envelope(self.fingerprints[index], envelope, job=job)
        self.progress.job_finished(
            job.describe(), cached=cached, elapsed=elapsed, warm=warm
        )
        if envelope is None and index in self.dups:
            envelope = result_to_dict(result)
        for dup in self.dups.get(index, ()):
            # Each duplicate gets its own equal object, exactly as if it
            # had crossed a worker pipe itself.
            self.results[dup] = result_from_dict(envelope)
            self.progress.job_deduped(self.jobs[dup].describe())
        return self._release(index)

    def fail(self, index: int, reason: str, cause: Any = None) -> list[int]:
        """Record a terminal failure (``cause``: the exception, or a
        worker's traceback text) for a leader and its duplicates. Its
        held followers are released anyway and run cold."""
        self.failures.append((index, reason, cause))
        for i in (index, *self.dups.get(index, ())):
            self.progress.job_failed(self.jobs[i].describe(), reason)
        return self._release(index)

    def _release(self, index: int) -> list[int]:
        self.outstanding -= 1
        return self.held.pop(index, [])

    def outcome(self) -> list[RunResult]:
        """The results aligned with ``jobs``, or :class:`CampaignJobError`
        for the first terminal failure once everything has settled."""
        if self.failures:
            index, reason, cause = self.failures[0]
            failed = sum(1 + len(self.dups.get(i, ())) for i, _, _ in self.failures)
            message = (
                f"{failed} of {len(self.jobs)} jobs failed terminally; "
                f"first: {self.jobs[index].describe()}: {reason}"
            )
            if isinstance(cause, str):
                message += "\n" + cause
            raise CampaignJobError(message) from (
                cause if isinstance(cause, BaseException) else None
            )
        return self.results  # type: ignore[return-value]  # every slot is filled


def plan_batch(
    jobs: Sequence[Job],
    *,
    cache: ResultCache | None,
    progress: CampaignProgress,
    warm_start: bool = False,
    stored: Container[str] = (),
) -> BatchPlan:
    """Fingerprint ``jobs``, answer cache hits, fold duplicates, and —
    with ``warm_start`` — gate each prefix group behind its first job.

    Without the gate, every member of a group whose prefix is not yet
    stored would cold-start concurrently, re-simulating the shared
    warmup once per worker. Groups whose key is in ``stored`` (the
    local prefix store) need no gate: every member can fork at once.
    """
    plan = BatchPlan(jobs, cache, progress, results=[None] * len(jobs))
    leaders: dict[str, int] = {}
    groups: dict[str, list[int]] = {}
    epoch = prefix_divergence_epoch() if warm_start else 0
    for i, job in enumerate(jobs):
        fingerprint = job_fingerprint(job)
        plan.fingerprints.append(fingerprint)
        leader = leaders.get(fingerprint)
        if leader is not None:
            plan.dups.setdefault(leader, []).append(i)
            continue
        hit = cache.get(fingerprint) if cache is not None else None
        if hit is not None:
            plan.results[i] = hit
            progress.job_finished(job.describe(), cached=True, elapsed=0.0)
            continue
        leaders[fingerprint] = i
        plan.pending.append(i)
        if warm_start and prefix_eligible(job):
            key = prefix_key(job, epoch)
            if key not in stored:
                groups.setdefault(key, []).append(i)
    for key, (first, *rest) in groups.items():
        if rest:
            plan.gate_keys[first] = key
            plan.held[first] = rest
    plan.outstanding = len(plan.pending)
    return plan
