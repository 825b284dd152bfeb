"""Worker-pool behavior: determinism across the process boundary, cache
integration, crash retry, timeouts, and the in-process fallback.

The crash/timeout fixtures register throwaway workload kinds at runtime,
which only reach pool workers under the ``fork`` start method — the
whole module is skipped where fork is unavailable (the pool itself falls
back gracefully there).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.config import RevokerKind
from repro.runner import (
    CampaignProgress,
    CampaignSpec,
    Job,
    ResultCache,
    WorkloadSpec,
    execute_job,
    run_campaign,
    run_jobs,
)
from repro.runner.campaign import register_workload
from repro.runner.pool import (
    CampaignJobError,
    default_max_workers,
    default_timeout_s,
)
from repro.runner.serialize import dumps_result
from repro.workloads.base import Workload

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pool tests need the fork start method"
)

_SPEC_JOB = Job(
    WorkloadSpec("spec", {"benchmark": "hmmer", "input": "retro", "scale": 2048}),
    RevokerKind.RELOADED,
)


class _TinyWorkload(Workload):
    name = "tiny"

    def run(self, ctx):
        cap = yield from ctx.malloc(64)
        yield from ctx.free(cap)
        yield 100


@pytest.fixture
def scratch_kind():
    """Register a throwaway workload kind; yields a setter for its
    builder and cleans the registry up afterwards."""
    from repro.runner import campaign

    kind = "pool-test-kind"

    def install(builder):
        register_workload(kind, builder)
        return kind

    yield install
    campaign._BUILDERS.pop(kind, None)


class TestDeterminism:
    def test_pool_worker_matches_in_process(self):
        """A seeded run serializes identically whether it ran here or in
        a pool worker (the satellite determinism criterion)."""
        in_process = dumps_result(execute_job(_SPEC_JOB))
        pooled = run_jobs([_SPEC_JOB, _SPEC_JOB], max_workers=2)
        assert dumps_result(pooled[0]) == in_process
        assert dumps_result(pooled[1]) == in_process

    def test_pool_and_serial_campaigns_agree(self, tmp_path):
        spec = CampaignSpec(
            "det",
            [WorkloadSpec("spec", {"benchmark": "gobmk", "input": "13x13", "scale": 2048})],
            [RevokerKind.NONE, RevokerKind.RELOADED],
            seeds=[1, 2],
        )
        serial = run_campaign(spec, max_workers=1)
        pooled = run_campaign(spec, max_workers=2)
        assert [dumps_result(r) for r in serial.results] == [
            dumps_result(r) for r in pooled.results
        ]

    def test_cached_result_equals_fresh(self, tmp_path):
        cache = ResultCache(tmp_path)
        fresh = run_jobs([_SPEC_JOB], cache=cache, max_workers=1)[0]
        cached = run_jobs([_SPEC_JOB], cache=cache, max_workers=1)[0]
        assert dumps_result(cached) == dumps_result(fresh)


class TestPoolCacheIntegration:
    def test_pooled_results_are_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        progress = CampaignProgress(2)
        run_jobs([_SPEC_JOB, _SPEC_JOB], cache=cache, max_workers=2, progress=progress)
        # Both jobs share one fingerprint; at least the second pass must
        # be pure hits.
        progress2 = CampaignProgress(2)
        run_jobs([_SPEC_JOB, _SPEC_JOB], cache=cache, max_workers=2, progress=progress2)
        assert progress2.cache_hits == 2
        assert progress2.fresh == 0


class TestFaultTolerance:
    def test_crash_once_is_retried(self, scratch_kind, tmp_path):
        flag = tmp_path / "crashed-once"

        def crash_once():
            if not flag.exists():
                flag.touch()
                os._exit(42)
            return _TinyWorkload()

        kind = scratch_kind(crash_once)
        progress = CampaignProgress(1)
        results = run_jobs(
            [Job(WorkloadSpec(kind), RevokerKind.NONE)],
            max_workers=2,
            progress=progress,
        )
        assert results[0].wall_cycles > 0
        assert progress.retries == 1
        assert progress.failures == 0

    def test_persistent_crash_fails_after_retry(self, scratch_kind):
        def always_crash():
            os._exit(13)

        kind = scratch_kind(always_crash)
        progress = CampaignProgress(1)
        with pytest.raises(CampaignJobError, match="failed twice"):
            run_jobs(
                [Job(WorkloadSpec(kind), RevokerKind.NONE)],
                max_workers=2,
                progress=progress,
            )
        assert progress.retries == 1
        assert progress.failures == 1

    def test_timeout_terminates_and_fails(self, scratch_kind):
        def sleepy():
            time.sleep(60)
            return _TinyWorkload()  # pragma: no cover

        kind = scratch_kind(sleepy)
        began = time.monotonic()
        with pytest.raises(CampaignJobError, match="timeout"):
            run_jobs(
                [Job(WorkloadSpec(kind), RevokerKind.NONE)],
                max_workers=2,
                timeout_s=0.3,
            )
        # Two attempts at ~0.3s each, not 60s.
        assert time.monotonic() - began < 20

    def test_deterministic_exception_not_retried(self, scratch_kind):
        def boom():
            raise RuntimeError("deterministic boom")

        kind = scratch_kind(boom)
        progress = CampaignProgress(1)
        with pytest.raises(CampaignJobError, match="deterministic boom"):
            run_jobs(
                [Job(WorkloadSpec(kind), RevokerKind.NONE)],
                max_workers=2,
                progress=progress,
            )
        assert progress.retries == 0


class TestFailureSettlesTheBatch:
    """The Executor contract: a terminal failure is raised only after
    every other job has settled, been cached, and reached progress."""

    @pytest.fixture
    def batch(self, scratch_kind):
        def maybe_boom(boom=False, n=0):
            if boom:
                raise RuntimeError("deterministic boom")
            return _TinyWorkload()

        kind = scratch_kind(maybe_boom)
        return [Job(WorkloadSpec(kind, {"boom": True}), RevokerKind.NONE)] + [
            Job(WorkloadSpec(kind, {"n": n}), RevokerKind.NONE) for n in range(3)
        ]

    @pytest.mark.parametrize("workers", [2, 1])
    def test_other_jobs_settle_before_the_error(self, batch, tmp_path, workers):
        cache = ResultCache(tmp_path)
        progress = CampaignProgress(len(batch))
        with pytest.raises(CampaignJobError, match="deterministic boom") as excinfo:
            run_jobs(batch, max_workers=workers, cache=cache, progress=progress)
        assert cache.entries() == 3
        assert progress.done == 4
        assert progress.failures == 1
        if workers == 1:  # in-process: chained from the original exception
            assert isinstance(excinfo.value.__cause__, RuntimeError)


class TestInterruptCleanup:
    def test_keyboard_interrupt_reaps_workers(self, scratch_kind, monkeypatch):
        """^C mid-campaign must terminate every live worker before the
        interrupt propagates — no orphans grinding on for 60 more
        seconds (the satellite regression)."""
        import multiprocessing

        from repro.runner import pool

        def sleepy():
            time.sleep(60)
            return _TinyWorkload()  # pragma: no cover

        kind = scratch_kind(sleepy)
        real_wait = pool.connection_wait

        def interrupting_wait(conns, timeout=None):
            # Let the workers actually start their jobs, then interrupt
            # the coordinator exactly where it spends its life waiting.
            real_wait(conns, timeout=0.3)
            raise KeyboardInterrupt

        monkeypatch.setattr(pool, "connection_wait", interrupting_wait)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_jobs(
                [
                    Job(WorkloadSpec(kind), RevokerKind.NONE),
                    Job(WorkloadSpec(kind), RevokerKind.RELOADED),
                ],
                max_workers=2,
            )
        deadline = time.monotonic() + 10
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - began < 30  # reaped, not waited out


class TestOrphanedWorkers:
    def test_workers_exit_when_their_supervisor_is_killed(self):
        """A supervisor SIGKILLed without draining its pool (a campaign
        or daemon killed -9) must not leave warm workers blocked on
        their pipes forever — respawned ones included."""
        import signal
        import subprocess
        import sys

        import repro

        code = (
            "import time\n"
            "from repro.runner.pool import WorkerPool\n"
            "pool = WorkerPool(3)\n"
            "pool.workers[1].respawn()\n"
            "print(*(w.process.pid for w in pool.workers), flush=True)\n"
            "time.sleep(60)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env
        )
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        proc.stdout.close()
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)

        def alive(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().split()[2] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert len(pids) == 3
        assert survivors == []


class TestDedup:
    def test_in_process_duplicates_run_once(self, scratch_kind):
        calls = []

        def counting():
            calls.append(1)
            return _TinyWorkload()

        kind = scratch_kind(counting)
        job_a = Job(WorkloadSpec(kind), RevokerKind.NONE)
        job_b = Job(WorkloadSpec(kind), RevokerKind.RELOADED)
        progress = CampaignProgress(3)
        results = run_jobs([job_a, job_a, job_b], max_workers=1, progress=progress)
        assert len(calls) == 2  # one per distinct fingerprint
        assert progress.fresh == 2
        assert progress.deduped == 1
        assert dumps_result(results[0]) == dumps_result(results[1])
        assert results[0] is not results[1]  # own copy, not shared state

    def test_pooled_duplicates_run_once(self, scratch_kind, tmp_path):
        log = tmp_path / "executions"

        def logging_builder():
            with open(log, "a") as fh:
                fh.write("x")
            return _TinyWorkload()

        kind = scratch_kind(logging_builder)
        jobs = [Job(WorkloadSpec(kind), RevokerKind.NONE)] * 4
        progress = CampaignProgress(4)
        results = run_jobs(jobs, max_workers=2, progress=progress)
        assert log.read_text() == "x"  # exactly one worker execution
        assert progress.fresh == 1
        assert progress.deduped == 3
        assert len({dumps_result(r) for r in results}) == 1

    def test_duplicates_hit_cache_next_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        progress = CampaignProgress(2)
        run_jobs([_SPEC_JOB, _SPEC_JOB], cache=cache, max_workers=2,
                 progress=progress)
        assert progress.fresh == 1
        assert progress.deduped == 1
        progress2 = CampaignProgress(2)
        run_jobs([_SPEC_JOB, _SPEC_JOB], cache=cache, max_workers=2,
                 progress=progress2)
        assert progress2.cache_hits == 2
        assert progress2.deduped == 0


class TestInProcessFallback:
    def test_single_worker_never_forks(self, scratch_kind, monkeypatch):
        """max_workers=1 must not touch multiprocessing at all."""
        from repro.runner import pool

        def no_pool(*args, **kwargs):  # pragma: no cover
            raise AssertionError("pool path used with max_workers=1")

        monkeypatch.setattr(pool, "_run_pooled", no_pool)
        results = run_jobs([_SPEC_JOB], max_workers=1)
        assert results[0].wall_cycles > 0

    def test_env_default_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_max_workers() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_max_workers() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "nope")
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            default_max_workers()


class TestProgress:
    def test_summary_counts_and_parseable_tail(self):
        progress = CampaignProgress(3)
        progress.job_finished("a", cached=True, elapsed=0.0)
        progress.job_finished("b", cached=False, elapsed=0.5)
        progress.job_finished("c", cached=False, elapsed=0.7)
        assert progress.hit_ratio() == pytest.approx(1 / 3)
        assert progress.eta_seconds() == 0.0  # nothing remaining
        summary = progress.summary()
        assert "cache-hits=1 fresh=2" in summary

    def test_terminal_failures_count_toward_done(self):
        # Regression: job_failed used to leave `done` short, so a
        # campaign with failures reported N/total forever and the ETA
        # never converged to zero.
        progress = CampaignProgress(3)
        progress.job_finished("a", cached=False, elapsed=1.0)
        progress.job_failed("b", "worker exited twice")
        assert progress.done == 2
        assert progress.failures == 1
        assert progress.eta_seconds() == pytest.approx(1.0)
        progress.job_failed("c", "RuntimeError: boom")
        assert progress.done == 3
        assert progress.eta_seconds() == 0.0
        summary = progress.summary()
        assert summary.startswith("3/3 jobs")
        assert "2 failed" in summary

    def test_retry_does_not_advance_done(self):
        # A retried job is still pending; only its terminal outcome
        # (finished or failed) settles it.
        progress = CampaignProgress(1)
        progress.job_retried("a", "timeout after 1.0s")
        assert progress.done == 0
        assert progress.retries == 1

    def test_summary_mentions_dedup_only_when_present(self):
        progress = CampaignProgress(2)
        progress.job_finished("a", cached=False, elapsed=0.1)
        assert "deduped" not in progress.summary()
        progress.job_deduped("b")
        summary = progress.summary()
        assert "cache-hits=0 fresh=1" in summary  # CI greps this shape
        assert "deduped=1" in summary
        assert progress.as_dict()["deduped"] == 1

    def test_eta_uses_fresh_jobs_only(self):
        progress = CampaignProgress(4)
        progress.job_finished("a", cached=True, elapsed=0.0)
        assert progress.eta_seconds() is None  # no fresh sample yet
        progress.job_finished("b", cached=False, elapsed=2.0)
        assert progress.eta_seconds() == pytest.approx(4.0)

    def test_echo_lines(self):
        lines = []
        progress = CampaignProgress(2, echo=lines.append)
        progress.job_finished("job-a", cached=True, elapsed=0.0)
        progress.job_retried("job-b", "worker exited")
        progress.job_finished("job-b", cached=False, elapsed=1.0)
        assert any("job-a" in line and "cache" in line for line in lines)
        assert any("retry" in line for line in lines)

    def test_eta_accounts_for_workers(self):
        # 16 remaining jobs at 2s each across 8 workers drain in two
        # waves, not 32 serial seconds.
        progress = CampaignProgress(17, workers=8)
        progress.job_finished("a", cached=False, elapsed=2.0)
        assert progress.eta_seconds() == pytest.approx(4.0)

    def test_eta_rounds_partial_wave_up(self):
        # 3 jobs on 2 workers is two waves (2 + 1), not 1.5.
        progress = CampaignProgress(4, workers=2)
        progress.job_finished("a", cached=False, elapsed=2.0)
        assert progress.eta_seconds() == pytest.approx(4.0)

    def test_run_jobs_fills_worker_count(self):
        progress = CampaignProgress(1)
        assert progress.workers is None
        run_jobs([_SPEC_JOB], max_workers=4, progress=progress)
        assert progress.workers == 4


class TestTimeoutKnob:
    def test_unset_means_no_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        assert default_timeout_s() is None

    def test_positive_value_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2.5")
        assert default_timeout_s() == pytest.approx(2.5)

    @pytest.mark.parametrize("raw", ["0", "-1", "-0.5"])
    def test_non_positive_rejected(self, monkeypatch, raw):
        # <= 0 used to silently disable the timeout; it must be loud
        # like every other bad knob value.
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_JOB_TIMEOUT", raw)
        with pytest.raises(ConfigError, match="REPRO_JOB_TIMEOUT"):
            default_timeout_s()

    def test_garbage_rejected(self, monkeypatch):
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
        with pytest.raises(ConfigError):
            default_timeout_s()
