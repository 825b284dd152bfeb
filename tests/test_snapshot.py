"""Checkpoint/restore: format, cadence, and the determinism contract.

The load-bearing assertions here are the differential ones: a run with
snapshots enabled must be bit-identical to one without, and a run resumed
from any checkpoint must be bit-identical to the straight-through run —
per revoker, traced or untraced. ``result_to_dict`` is the comparison
surface because it is exactly what the campaign cache and the serve wire
protocol persist.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.config import RevokerKind, SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import SnapshotError
from repro.obs.tracer import TRACER, tracing
from repro.runner.serialize import result_to_dict
from repro.snapshot import (
    SnapshotPlan,
    SnapshotSession,
    pack_checkpoint,
    read_header,
    restore_simulation,
    unpack_checkpoint,
)
from repro.workloads import spec
from repro.workloads.base import Workload

#: Small machine: the tag/capability arrays span simulated physical
#: memory, so this is what keeps checkpoints and test runtimes small.
MEMORY_BYTES = 16 << 20

SAFETY_KINDS = (
    RevokerKind.CHERIVOKE,
    RevokerKind.CORNUCOPIA,
    RevokerKind.RELOADED,
    RevokerKind.PAINT_SYNC,
)


def build_sim(kind: RevokerKind, scale: int = 4096, seed: int = 3) -> Simulation:
    workload = spec.workload("hmmer", "retro", scale=scale, seed=seed)
    cfg = SimulationConfig(revoker=kind)
    cfg.machine.memory_bytes = MEMORY_BYTES
    return Simulation(workload, cfg)


def plan_for(kind: RevokerKind) -> SnapshotPlan:
    if kind is RevokerKind.NONE:
        return SnapshotPlan(every_checks=16)
    return SnapshotPlan(every_epochs=1)


# --- Container format --------------------------------------------------------


def test_format_roundtrip():
    header = {"format": "repro-checkpoint", "epoch": 3, "workload": "x"}
    payload = pickle.dumps({"hello": list(range(1000))})
    blob = pack_checkpoint(header, payload)
    assert read_header(blob) == header
    got_header, got_payload = unpack_checkpoint(blob)
    assert got_header == header
    assert got_payload == payload


def test_format_rejects_corruption():
    blob = pack_checkpoint({"a": 1}, b"payload")
    with pytest.raises(SnapshotError, match="magic"):
        unpack_checkpoint(b"NOTASNAP" + blob[8:])
    with pytest.raises(SnapshotError, match="truncated"):
        unpack_checkpoint(blob[:10])
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0xFF
    with pytest.raises(SnapshotError, match="checksum"):
        unpack_checkpoint(bytes(flipped))


def test_format_rejects_future_version():
    blob = bytearray(pack_checkpoint({"a": 1}, b"p"))
    # Version lives right after the 8-byte magic (big-endian u16).
    blob[8:10] = (99).to_bytes(2, "big")
    import hashlib

    body = bytes(blob[:-32])
    fixed = body + hashlib.sha256(body).digest()
    with pytest.raises(SnapshotError, match="v99"):
        unpack_checkpoint(fixed)


# --- Refusals ----------------------------------------------------------------


def test_refuses_unsupported_workload():
    class Frames(Workload):
        name = "frames"

        def run(self, ctx):
            yield 1

    sim = Simulation(Frames(), SimulationConfig(revoker=RevokerKind.NONE))
    with pytest.raises(SnapshotError, match="does not support"):
        sim.run(snapshots=SnapshotPlan(every_checks=1))


def test_refuses_check_layer_hooks():
    sim = build_sim(RevokerKind.RELOADED)
    sim.kernel.epoch.on_transition = lambda *a: None
    with pytest.raises(SnapshotError, match="hooks"):
        sim.run(snapshots=SnapshotPlan(every_epochs=1))


def test_none_revoker_requires_check_cadence():
    sim = build_sim(RevokerKind.NONE)
    with pytest.raises(SnapshotError, match="every_checks"):
        sim.run(snapshots=SnapshotPlan(every_epochs=1))


def test_resume_requires_restored_simulation():
    sim = build_sim(RevokerKind.RELOADED)
    with pytest.raises(SnapshotError, match="restored"):
        sim.resume()


def test_refuses_tracer_state_mismatch():
    sim = build_sim(RevokerKind.RELOADED)
    sim.run(snapshots=plan_for(RevokerKind.RELOADED))
    blob = sim._snapshots.captured[0]
    assert not TRACER.enabled
    with tracing(capacity=64):
        with pytest.raises(SnapshotError, match="tracing disabled"):
            restore_simulation(blob)


# --- The determinism contract ------------------------------------------------


@pytest.mark.parametrize("kind", SAFETY_KINDS, ids=lambda k: k.value)
def test_snapshots_do_not_perturb_the_run(kind):
    """Enabling checkpoint capture must not change the RunResult: parking
    only happens when nothing else is runnable, so zero simulated cycles
    pass during a capture."""
    plain = build_sim(kind).run()
    sim = build_sim(kind)
    snapped = sim.run(snapshots=plan_for(kind))
    assert sim._snapshots.sequence >= 1
    assert result_to_dict(snapped) == result_to_dict(plain)


@pytest.mark.parametrize("kind", SAFETY_KINDS + (RevokerKind.NONE,),
                         ids=lambda k: k.value)
def test_resume_is_bit_identical(kind):
    sim = build_sim(kind)
    straight = sim.run(snapshots=plan_for(kind))
    session = sim._snapshots
    assert session.captured, "cadence never fired; shrink the plan"
    expected = result_to_dict(straight)
    for blob in session.captured:
        restored, header = restore_simulation(blob)
        assert header["workload"] == "hmmer.retro"
        assert result_to_dict(restored.resume()) == expected


def test_resume_twice_is_deterministic():
    sim = build_sim(RevokerKind.RELOADED)
    straight = sim.run(snapshots=plan_for(RevokerKind.RELOADED))
    blob = sim._snapshots.captured[-1]
    first = result_to_dict(restore_simulation(blob)[0].resume())
    second = result_to_dict(restore_simulation(blob)[0].resume())
    assert first == second == result_to_dict(straight)


def test_traced_roundtrip_preserves_metrics_and_trace():
    with tracing(capacity=1 << 14):
        sim = build_sim(RevokerKind.RELOADED)
        straight = sim.run(snapshots=plan_for(RevokerKind.RELOADED))
        blob = sim._snapshots.captured[0]
        straight_events = [
            (e.name, e.ts, e.args) for e in TRACER.events()
        ]
        straight_metrics = TRACER.metrics.to_dict()
        straight_dict = result_to_dict(straight)
    assert straight_events, "traced run should buffer events"
    with tracing(capacity=1 << 14):
        restored, _ = restore_simulation(blob)
        resumed = restored.resume()
        resumed_events = [
            (e.name, e.ts, e.args) for e in TRACER.events()
        ]
        resumed_metrics = TRACER.metrics.to_dict()
    assert result_to_dict(resumed) == straight_dict
    assert resumed_events == straight_events
    assert resumed_metrics == straight_metrics


def test_resumed_run_keeps_checkpointing():
    sim = build_sim(RevokerKind.RELOADED)
    sim.run(snapshots=plan_for(RevokerKind.RELOADED))
    session = sim._snapshots
    assert session.sequence >= 2
    first = session.captured[0]
    delivered = []
    restored, _ = restore_simulation(
        first, sink=lambda blob, header: delivered.append(header)
    )
    restored.resume()
    # The resumed run continues the capture sequence from where the
    # checkpoint left off (sequence numbers 2, 3, ... of the original).
    assert delivered
    assert [h["sequence"] for h in delivered] == list(
        range(2, 2 + len(delivered))
    )
    assert restored._snapshots.sequence == session.sequence


def test_checkpoint_does_not_nest_captures():
    sim = build_sim(RevokerKind.RELOADED)
    sim.run(snapshots=plan_for(RevokerKind.RELOADED))
    session = sim._snapshots
    restored, _ = restore_simulation(session.captured[-1])
    # In-memory blobs and the sink must not travel inside a checkpoint.
    assert restored._snapshots.captured == []
    assert restored._snapshots._sink is None


def test_simulation_cannot_run_twice_even_with_snapshots():
    from repro.errors import SimulationError

    sim = build_sim(RevokerKind.RELOADED)
    sim.run(snapshots=plan_for(RevokerKind.RELOADED))
    with pytest.raises(SimulationError, match="once"):
        sim.run()
    restored, _ = restore_simulation(sim._snapshots.captured[0])
    restored.resume()
    with pytest.raises(SimulationError, match="once"):
        restored.resume()


def test_max_captures_bounds_the_session():
    sim = build_sim(RevokerKind.RELOADED)
    plan = SnapshotPlan(every_epochs=1, max_captures=1)
    plain = build_sim(RevokerKind.RELOADED).run()
    snapped = sim.run(snapshots=plan)
    assert sim._snapshots.sequence == 1
    assert result_to_dict(snapped) == result_to_dict(plain)


# --- Runner wiring: the killed-job scenario ---------------------------------


def _runner_job(scale: int = 4096):
    from repro.runner.campaign import Job, WorkloadSpec

    return Job(
        workload=WorkloadSpec(
            "spec",
            {"benchmark": "hmmer", "input": "retro", "scale": scale, "seed": 3},
        ),
        revoker=RevokerKind.RELOADED,
        config={"machine": {"memory_bytes": MEMORY_BYTES}},
    )


def test_pool_job_resumes_from_checkpoint(tmp_path, monkeypatch):
    """The crashed-job scenario: a worker died after writing checkpoints;
    the retry (same job, same REPRO_SNAPSHOT_DIR) must resume from the
    last checkpoint — observably, via the restore path — and produce the
    exact full-run result without recomputing completed epochs."""
    import repro.runner.campaign as campaign_mod
    from repro.runner.campaign import execute_job, job_trace_slug

    job = _runner_job()
    snap_dir = tmp_path / "snaps"
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(snap_dir))

    # First execution: runs fresh, leaves its last checkpoint behind.
    full = result_to_dict(execute_job(job))
    ckpt = snap_dir / f"{job_trace_slug(job)}.ckpt"
    assert ckpt.exists()
    header = read_header(ckpt.read_bytes())
    from repro.runner.cache import job_fingerprint

    assert header["job_fingerprint"] == job_fingerprint(job)

    # Rerun the "retried after a crash" scenario and verify the restore
    # path was taken and completed epochs were skipped.
    calls = []
    import repro.snapshot.capture as capture_mod

    original = capture_mod.restore_simulation

    def spying_restore(data, sink=None):
        sim, header = original(data, sink=sink)
        calls.append(header["epoch"])
        return sim, header

    monkeypatch.setattr(capture_mod, "restore_simulation", spying_restore)
    # _run_job imports from repro.snapshot, whose name re-exports the
    # capture function; patch that binding too.
    import repro.snapshot as snapshot_pkg

    monkeypatch.setattr(snapshot_pkg, "restore_simulation", spying_restore)

    resumed = result_to_dict(execute_job(job))
    assert calls, "retry did not take the resume path"
    assert calls[0] >= 1, "resume started from epoch 0 (recomputed everything)"
    assert resumed == full


def test_stale_checkpoint_is_ignored(tmp_path, monkeypatch):
    from repro.runner.campaign import execute_job, job_trace_slug

    job = _runner_job()
    snap_dir = tmp_path / "snaps"
    snap_dir.mkdir()
    path = snap_dir / f"{job_trace_slug(job)}.ckpt"
    path.write_bytes(b"garbage that is not a checkpoint at all")
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(snap_dir))
    result = execute_job(job)  # must fall back to a fresh run
    assert result.wall_cycles > 0
    # ...and replace the garbage with a real checkpoint.
    read_header(path.read_bytes())


def test_snapshot_dir_off_means_no_files(tmp_path, monkeypatch):
    from repro.runner.campaign import execute_job

    monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
    execute_job(_runner_job())
    assert list(tmp_path.iterdir()) == []


def test_serve_config_snapshot_dir_env_fallback(monkeypatch):
    from repro.serve.server import ServeConfig

    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", "/tmp/snapdir")
    cfg = ServeConfig(socket_path="/tmp/s.sock")
    assert cfg.snapshot_dir == "/tmp/snapdir"
    monkeypatch.delenv("REPRO_SNAPSHOT_DIR")
    cfg = ServeConfig(socket_path="/tmp/s.sock")
    assert cfg.snapshot_dir is None
