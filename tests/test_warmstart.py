"""Warm-start prefix sharing: key semantics, the store's first-writer
atomicity, cross-revoker forking, and the runner integration
(docs/WARMSTART.md)."""

from __future__ import annotations

import os

import pytest

from repro.core.config import RevokerKind, SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import SnapshotError
from repro.runner.campaign import (
    Job,
    WorkloadSpec,
    execute_job,
    pop_warm_start_note,
    prefix_eligible,
)
from repro.runner.pool import WorkerPool, run_jobs
from repro.runner.progress import CampaignProgress
from repro.runner.serialize import dumps_result, result_from_dict
from repro.snapshot import (
    SnapshotPlan,
    SnapshotSession,
    read_header,
)
from repro.snapshot.format import pack_checkpoint
from repro.snapshot.prefix import (
    PrefixBlobError,
    PrefixKeyError,
    PrefixStore,
    fork_simulation,
    prefix_key,
    prefix_plan,
    retarget_revoker,
)
from repro.workloads import spec

REVOKING = (
    RevokerKind.PAINT_SYNC,
    RevokerKind.CHERIVOKE,
    RevokerKind.CORNUCOPIA,
    RevokerKind.RELOADED,
)

CFG = {"machine": {"memory_bytes": 16 << 20}}


def _spec(scale=2048, seed=1):
    return WorkloadSpec(
        "spec", {"benchmark": "hmmer", "input": "retro", "scale": scale, "seed": seed}
    )


def _job(kind, scale=2048, seed=1):
    return Job(_spec(scale, seed), kind, CFG)


def _build(kind, scale=2048, seed=1):
    workload = spec.workload("hmmer", "retro", scale=scale, seed=seed)
    cfg = SimulationConfig(revoker=kind)
    cfg.machine.memory_bytes = 16 << 20
    return Simulation(workload, cfg)


class TestPrefixKey:
    def test_revokers_share_a_key_at_epoch_zero(self):
        keys = {prefix_key(_job(kind)) for kind in REVOKING}
        assert len(keys) == 1

    def test_revoker_splits_the_key_past_epoch_zero(self):
        keys = {prefix_key(_job(kind), divergence_epoch=2) for kind in REVOKING}
        assert len(keys) == len(REVOKING)

    def test_none_has_no_prefix(self):
        with pytest.raises(SnapshotError):
            prefix_key(_job(RevokerKind.NONE))

    def test_negative_epoch_rejected(self):
        with pytest.raises(SnapshotError):
            prefix_key(_job(RevokerKind.RELOADED), divergence_epoch=-1)

    def test_workload_seed_and_config_participate(self):
        base = prefix_key(_job(RevokerKind.RELOADED))
        assert prefix_key(_job(RevokerKind.RELOADED, scale=1024)) != base
        assert prefix_key(_job(RevokerKind.RELOADED, seed=2)) != base
        other_cfg = Job(_spec(), RevokerKind.RELOADED, {"machine": {"memory_bytes": 32 << 20}})
        assert prefix_key(other_cfg) != base

    def test_code_version_participates(self):
        a = prefix_key(_job(RevokerKind.RELOADED), code_version="aaaa")
        b = prefix_key(_job(RevokerKind.RELOADED), code_version="bbbb")
        assert a != b

    def test_eligibility(self):
        assert prefix_eligible(_job(RevokerKind.RELOADED))
        assert not prefix_eligible(_job(RevokerKind.NONE))
        assert not prefix_eligible(
            Job(WorkloadSpec("pgbench", {"transactions": 5}), RevokerKind.RELOADED, {})
        )


def _blob(key, payload=b"payload"):
    """A well-formed checkpoint container stamped for ``key``."""
    return pack_checkpoint({"prefix_key": key}, payload)


class TestPrefixStore:
    def test_miss_is_none(self, tmp_path):
        store = PrefixStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.entries() == 0

    def test_put_then_get(self, tmp_path):
        store = PrefixStore(tmp_path)
        blob = _blob("ab" * 32)
        assert store.put_if_absent("ab" * 32, blob) is True
        assert store.get("ab" * 32) == blob
        assert "ab" * 32 in store
        assert store.entries() == 1

    def test_first_writer_wins(self, tmp_path):
        # The double-capture guard: the second writer is rejected and the
        # first blob survives untouched.
        store = PrefixStore(tmp_path)
        first = _blob("cd" * 32, b"first")
        assert store.put_if_absent("cd" * 32, first) is True
        assert store.put_if_absent("cd" * 32, _blob("cd" * 32, b"second")) is False
        assert store.get("cd" * 32) == first
        assert store.entries() == 1

    def test_paths_sorted(self, tmp_path):
        store = PrefixStore(tmp_path)
        store.put_if_absent("ff" * 32, _blob("ff" * 32))
        store.put_if_absent("00" * 32, _blob("00" * 32))
        names = [p.stem for p in store.paths()]
        assert names == sorted(names)

    @pytest.mark.parametrize(
        "key",
        ["../../../escaped", "/etc/passwd", "AB" * 32, "ab" * 31, "ab" * 33, "", None],
    )
    def test_key_must_be_a_hex_digest(self, tmp_path, key):
        # Keys reach the store from the serve wire: anything but a
        # sha256 hex digest is refused before it can name a path.
        root = tmp_path / "a" / "b" / "store"
        store = PrefixStore(root)
        with pytest.raises(PrefixKeyError):
            store.put_if_absent(key, b"x")
        with pytest.raises(PrefixKeyError):
            store.get(key)
        with pytest.raises(PrefixKeyError):
            key in store
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize(
        "blob",
        [
            _blob("a" * 64),
            pack_checkpoint({"epoch": 0}, b"x"),
            b"not a checkpoint",
            _blob("c" * 64)[:-1] + b"\x00",
            b"",
        ],
        ids=["other-key", "unstamped", "not-a-checkpoint", "bad-digest", "empty"],
    )
    def test_blob_must_be_a_checkpoint_for_its_key(self, tmp_path, blob):
        # Blobs reach the store from the serve wire too: one parked under
        # another group's key would silently break every later warm
        # start of that group.
        store = PrefixStore(tmp_path)
        with pytest.raises(PrefixBlobError):
            store.put_if_absent("c" * 64, blob)
        assert store.entries() == 0
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class TestFork:
    def _prefix_blob(self, leader=RevokerKind.PAINT_SYNC):
        sim = _build(leader)
        session = SnapshotSession(sim, prefix_plan(0))
        result = sim.run(snapshots=session)
        assert session.captured, "prefix capture window missed"
        return session.captured[-1], dumps_result(result)

    def test_fork_is_bit_identical_for_every_revoker(self):
        blob, leader_cold = self._prefix_blob()
        assert dumps_result(_build(RevokerKind.PAINT_SYNC).run()) == leader_cold
        for kind in REVOKING:
            cold = dumps_result(_build(kind).run())
            forked, header = fork_simulation(blob, kind)
            assert header["epoch"] == 0
            assert dumps_result(forked.resume()) == cold

    def test_fork_to_none_rejected(self):
        blob, _ = self._prefix_blob()
        with pytest.raises(SnapshotError):
            fork_simulation(blob, RevokerKind.NONE)

    def test_retarget_past_epoch_zero_rejected(self):
        # An epoch-1 checkpoint carries strategy-specific state; only a
        # same-strategy resume is sound there.
        sim = _build(RevokerKind.RELOADED, scale=1024)
        session = SnapshotSession(
            sim, SnapshotPlan(every_epochs=1, max_captures=1)
        )
        result = sim.run(snapshots=session)
        if not session.captured:
            pytest.skip("run completed before the first epoch closed")
        same, _ = fork_simulation(session.captured[0], RevokerKind.RELOADED)
        assert dumps_result(same.resume()) == dumps_result(result)
        with pytest.raises(SnapshotError):
            fork_simulation(session.captured[0], RevokerKind.CORNUCOPIA)


class TestExecuteJobWarmStart:
    def test_capture_then_hits_bit_identical(self, tmp_path, monkeypatch):
        cold = {kind: dumps_result(execute_job(_job(kind))) for kind in REVOKING}
        assert pop_warm_start_note() is None

        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        store = PrefixStore(tmp_path)
        notes = []
        for kind in REVOKING:
            assert dumps_result(execute_job(_job(kind))) == cold[kind]
            notes.append(pop_warm_start_note())
        assert notes == ["capture", "hit", "hit", "hit"]
        assert store.entries() == 1
        header = read_header(store.paths()[0].read_bytes())
        assert header["epoch"] == 0
        assert header["prefix_key"] == prefix_key(_job(REVOKING[0]))

    def test_none_jobs_bypass_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        execute_job(_job(RevokerKind.NONE))
        assert pop_warm_start_note() is None
        assert PrefixStore(tmp_path).entries() == 0

    def test_corrupt_prefix_degrades_to_cold(self, tmp_path, monkeypatch):
        cold = dumps_result(execute_job(_job(RevokerKind.RELOADED)))
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        store = PrefixStore(tmp_path)
        key = prefix_key(_job(RevokerKind.RELOADED))
        # The store refuses such a blob on put, so corrupt it on disk.
        path = store._path_of(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"RPRSNAP garbage that is not a checkpoint")
        assert dumps_result(execute_job(_job(RevokerKind.RELOADED))) == cold
        assert pop_warm_start_note() is None


class TestRunJobsWarmStart:
    def _jobs(self):
        return [_job(kind) for kind in REVOKING]

    def test_in_process_counts_and_results(self, tmp_path, monkeypatch):
        cold = [dumps_result(r) for r in run_jobs(self._jobs(), max_workers=1)]
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        progress = CampaignProgress(len(REVOKING))
        warm = run_jobs(self._jobs(), max_workers=1, progress=progress)
        assert [dumps_result(r) for r in warm] == cold
        assert progress.prefix_captures == 1
        assert progress.prefix_hits == 3
        assert "prefix-hits=3 prefix-captures=1" in progress.summary()
        assert progress.as_dict()["prefix_hits"] == 3

    def test_pooled_gating_counts_and_results(self, tmp_path, monkeypatch):
        cold = [dumps_result(r) for r in run_jobs(self._jobs(), max_workers=1)]
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        progress = CampaignProgress(len(REVOKING))
        warm = run_jobs(self._jobs(), max_workers=2, progress=progress)
        assert [dumps_result(r) for r in warm] == cold
        # The gate holds the three followers until the leader stores the
        # prefix, so exactly one capture happens even with two workers.
        assert progress.prefix_captures == 1
        assert progress.prefix_hits == 3
        assert PrefixStore(tmp_path).entries() == 1

    def test_prewarmed_store_is_all_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        run_jobs([self._jobs()[0]], max_workers=1)
        progress = CampaignProgress(len(REVOKING))
        run_jobs(self._jobs(), max_workers=2, progress=progress)
        assert progress.prefix_captures == 0
        assert progress.prefix_hits == 4


@pytest.mark.skipif(not hasattr(os, "fork"), reason="warm workers need fork")
class TestWarmWorkerIsolation:
    def test_cold_job_after_prefix_hit_reports_no_note(self, tmp_path, monkeypatch):
        """A warm worker runs many jobs in one process: a prefix-ineligible
        job after a prefix hit must not inherit the hit's note (it would
        inflate the campaign's prefix-hits count), and both results must
        equal their in-process cold runs."""
        jobs = [_job(RevokerKind.RELOADED), _job(RevokerKind.NONE)]
        cold = [dumps_result(execute_job(job)) for job in jobs]
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        execute_job(_job(RevokerKind.CORNUCOPIA))  # stores the group's prefix
        assert pop_warm_start_note() == "capture"
        pool = WorkerPool(1)
        try:
            worker = pool.workers[0]
            replies = []
            for job in jobs:
                worker.submit(job)
                replies.append(worker.conn.recv())
        finally:
            pool.stop()
        assert [reply[0] for reply in replies] == ["ok", "ok"]
        assert [reply[2] for reply in replies] == ["hit", None]
        assert [dumps_result(result_from_dict(reply[1])) for reply in replies] == cold
