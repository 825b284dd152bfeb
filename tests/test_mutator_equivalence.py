"""The fused/reference mutator-path equivalence suite.

Every simulated load and store of a churn workload has two
implementations: the fused ``Core.*_at`` entry points (default) and the
reference chain of per-layer calls they fall back to (``REPRO_SCALAR=1``).
These tests pin that the two are bit-identical for a pointer-rich,
revocation-heavy churn: the serialized ``RunResult`` under every
strategy, the surviving capability population, and a mid-run checkpoint
blob, byte for byte.
"""

from __future__ import annotations

import pytest

from repro.alloc.quarantine import QuarantinePolicy
from repro.core.config import RevokerKind, SimulationConfig
from repro.core.simulation import Simulation
from repro.runner.serialize import dumps_result
from repro.snapshot import SnapshotPlan, SnapshotSession, restore_simulation
from repro.workloads.churn import ChurnProfile, ChurnWorkload, SizeMix

KINDS = [
    RevokerKind.NONE,
    RevokerKind.PAINT_SYNC,
    RevokerKind.CHERIVOKE,
    RevokerKind.CORNUCOPIA,
    RevokerKind.RELOADED,
]


def _workload() -> ChurnWorkload:
    """Pointer-rich (three slots, four chases and three rewires per
    iteration), a low quarantine floor for many epochs, data spans of four
    and five lines so both the fused span and its fallback run, and a
    steady phase."""
    profile = ChurnProfile(
        name="mutator-equivalence",
        heap_bytes=64 << 10,
        churn_bytes=192 << 10,
        size_mix=SizeMix((32, 64, 128, 512, 2048), (3.0, 4.0, 2.0, 2.0, 0.5)),
        pointer_slots=3,
        cap_stores_per_iter=3,
        cap_loads_per_iter=4,
        deref_bytes=96,
        data_accesses_per_iter=(3, 2, 232),
        compute_per_iter=1_500,
        steady_iterations=200,
        seed=5,
    )
    return ChurnWorkload(profile, quarantine_policy=QuarantinePolicy(min_bytes=16 << 10))


def _sim(kind: RevokerKind) -> Simulation:
    cfg = SimulationConfig(revoker=kind)
    cfg.machine.memory_bytes = 16 << 20
    # Smaller than the heap, so the mutator evicts dirty lines.
    cfg.machine.cache_bytes = 32 << 10
    return Simulation(_workload(), cfg)


def _both(monkeypatch, body):
    """``body()`` on the reference path, then on the fused path."""
    out = []
    for scalar in ("1", "0"):
        monkeypatch.setenv("REPRO_SCALAR", scalar)
        out.append(body())
    return out


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_results_byte_identical(kind, monkeypatch):
    reference, fused = _both(monkeypatch, lambda: dumps_result(_sim(kind).run()))
    assert fused == reference


def test_workload_is_revocation_heavy(monkeypatch):
    monkeypatch.delenv("REPRO_SCALAR", raising=False)
    result = _sim(RevokerKind.RELOADED).run()
    assert result.revocations >= 5
    assert result.foreground_faults > 0
    assert result.caps_revoked > 0


def test_surviving_capabilities_identical(monkeypatch):
    def population():
        sim = _sim(RevokerKind.RELOADED)
        sim.run()
        return sorted(
            (g, cap.base, cap.length, cap.address)
            for g, cap in sim.machine.memory.iter_tagged()
        )

    reference, fused = _both(monkeypatch, population)
    assert fused == reference


@pytest.mark.parametrize(
    "kind", [RevokerKind.CORNUCOPIA, RevokerKind.RELOADED], ids=lambda k: k.value
)
def test_midrun_checkpoint_identical(kind, monkeypatch):
    def capture():
        sim = _sim(kind)
        session = SnapshotSession(sim, SnapshotPlan(every_epochs=2, max_captures=1))
        result = sim.run(snapshots=session)
        assert session.captured, "no checkpoint landed before the run ended"
        return session.captured[0], dumps_result(result)

    (ref_blob, ref_result), (fused_blob, fused_result) = _both(monkeypatch, capture)
    assert fused_blob == ref_blob
    assert fused_result == ref_result
    # A checkpoint does not carry the path: the fused run's blob resumes
    # on the reference path to the same result.
    monkeypatch.setenv("REPRO_SCALAR", "1")
    resumed, _ = restore_simulation(fused_blob)
    assert dumps_result(resumed.resume()) == ref_result
