"""Warm-start prefix store: shared simulation prefixes for sweeps.

The paper's evaluation is a sweep — the same workload under four
revocation strategies — and PR 4's cross-strategy differential check
proved the logical traces are identical across revokers until the first
revocation epoch opens. That shared warmup is pure recomputation, so
campaigns capture it **once** per (workload, config) group and fork every
sibling job from the checkpoint instead of cold-simulating it: the
simulator-world analogue of prefix/KV caching in an inference stack.

A prefix is a content-addressed checkpoint keyed by everything that
determines the simulation *up to the divergence epoch*:

- the workload spec (builder kind + every parameter, seed included);
- the declarative config overrides (machine shape, quarantine policy);
- the divergence epoch, and at epochs >= 1 the revoker (post-epoch state
  is strategy-specific: cache contents, epoch records, fault counters);
- the simulation code fingerprint (:func:`repro.runner.cache
  .code_fingerprint`) and the checkpoint/result format versions;
- whether the run is traced (tracer state travels inside checkpoints and
  restore refuses a mismatch).

At divergence epoch 0 the key deliberately omits the revoker: revoker
construction has no machine side effects, and no strategy-specific cost
can occur before the first epoch (a load-generation fault needs a
generation flip), so one epoch-0 blob serves **all four** revoking
strategies. :func:`fork_simulation` restores the blob and — when the
target strategy differs from the captured one — swaps in a fresh revoker
of the target class before resuming (:func:`retarget_revoker`). The NONE
baseline runs a different allocator shim and is never warm-started.

Storage mirrors :class:`repro.runner.cache.ResultCache`: one file per
prefix under ``<root>/objects/<aa>/<key>.ckpt``, written through a
same-directory temp file. :meth:`PrefixStore.put_if_absent` links the
temp file in with ``os.link`` so concurrent jobs sharing a prefix can
never double-capture — the first writer wins, everyone else keeps the
existing blob.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import settings
from repro.core.config import RevokerKind
from repro.errors import SnapshotError
from repro.snapshot.capture import restore_simulation
from repro.snapshot.format import read_header
from repro.snapshot.session import SnapshotPlan

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.core.simulation import Simulation
    from repro.runner.campaign import Job

#: Capture the epoch-0 prefix once quarantine exceeds this fraction of
#: the revocation-trigger limit — late enough that the shared prefix
#: covers most of the warmup, early enough that a poll still lands
#: before the trigger fires.
PREFIX_FRACTION = 0.85


def default_prefix_dir() -> Path:
    """``$REPRO_PREFIX_DIR``, else ``~/.cache/repro/prefixes``."""
    env = settings.prefix_dir()
    if env is not None:
        return env
    return Path.home() / ".cache" / "repro" / "prefixes"


def prefix_store_dir() -> Path | None:
    """Where warm-start prefixes live (``$REPRO_PREFIX_DIR``), or None
    when warm-starting is off. Inherited by pool and serve workers, the
    same way trace/snapshot artifact dirs are."""
    return settings.prefix_dir()


def prefix_divergence_epoch() -> int:
    """The divergence epoch for runner-managed prefixes
    (``$REPRO_PREFIX_EPOCH``, default 0 — the cross-revoker point)."""
    return settings.prefix_epoch()


def prefix_key(
    job: "Job", divergence_epoch: int = 0, code_version: str | None = None
) -> str:
    """The content address of one job's warm-start prefix.

    Jobs that differ only in revoker share a key at divergence epoch 0;
    at later epochs the revoker is part of the key (the prefix itself is
    strategy-specific past the first epoch).
    """
    from repro.runner.cache import code_fingerprint
    from repro.runner.serialize import (
        FORMAT_VERSION as RESULT_FORMAT_VERSION,
        canonical_json,
    )
    from repro.snapshot.format import FORMAT_VERSION

    if job.revoker is RevokerKind.NONE:
        raise SnapshotError(
            "the none revoker runs a different allocator shim and has no "
            "shared prefix with the revoking strategies"
        )
    if divergence_epoch < 0:
        raise SnapshotError(
            f"divergence epoch must be >= 0, got {divergence_epoch}"
        )
    material = {
        "kind": "warm-start-prefix",
        "workload": job.workload.to_dict(),
        "config": dict(job.config),
        "epoch": divergence_epoch,
        "family": "mrs" if divergence_epoch == 0 else job.revoker.value,
        "code": code_version if code_version is not None else code_fingerprint(),
        "snapshot_format": FORMAT_VERSION,
        "result_format": RESULT_FORMAT_VERSION,
        "traced": settings.trace_dir() is not None,
    }
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()


def prefix_plan(
    divergence_epoch: int = 0, fraction: float = PREFIX_FRACTION
) -> SnapshotPlan:
    """The capture cadence for one prefix: the staged epoch-0 ladder
    (the run buffers every rung and keeps the deepest; see
    ``SnapshotPlan.prefix_fraction``), or a single checkpoint at the
    divergence epoch's close for epochs >= 1."""
    if divergence_epoch == 0:
        return SnapshotPlan(prefix_fraction=fraction)
    return SnapshotPlan(every_epochs=divergence_epoch, max_captures=1)


def retarget_revoker(sim: "Simulation", kind: RevokerKind) -> None:
    """Swap a restored simulation's revocation strategy for ``kind``.

    Only sound at divergence epoch 0 — before the first epoch a revoker
    instance carries no history (empty records, zero fault counters) and
    no strategy-specific cost has been charged to the machine, so a fresh
    instance of the target class is observationally identical to having
    run under it from the start. The register files the kernel registered
    with the captured revoker are transplanted (the STW root scan must
    keep covering every app thread), and the freshly attached controller
    generator reads ``kernel.revoker`` lazily on its first advance, so no
    other reference needs fixing.
    """
    from repro.core.simulation import _REVOKER_CLASSES

    if kind is RevokerKind.NONE or sim.mrs is None:
        raise SnapshotError(
            "warm-start forking requires a revoking strategy on both sides"
        )
    if sim.config.custom_revoker is not None:
        raise SnapshotError("cannot retarget a custom revoker")
    if sim.config.revoker is kind:
        return
    old = sim.kernel.revoker
    if (
        sim.kernel.epoch.completed != 0
        or sim.mrs._trigger_pending
        or (old is not None and old.records)
    ):
        raise SnapshotError(
            "cross-revoker forking is only sound at divergence epoch 0 "
            "(the checkpoint already contains strategy-specific state)"
        )
    new = _REVOKER_CLASSES[kind](
        sim.kernel.machine,
        sim.kernel.address_space,
        sim.kernel.shadow,
        sim.kernel.epoch,
        sim.kernel.hoards,
    )
    new.register_files = old.register_files if old is not None else []
    sim.kernel.revoker = new
    sim.config.revoker = kind


def fork_simulation(
    data: bytes, kind: RevokerKind
) -> "tuple[Simulation, dict[str, Any]]":
    """Restore a prefix blob and point it at ``kind``; continue with
    ``sim.resume()``. With ``kind`` equal to the captured strategy this
    is a plain restore (valid at any divergence epoch); a different
    revoking strategy additionally requires an epoch-0 prefix."""
    sim, header = restore_simulation(data)
    retarget_revoker(sim, kind)
    return sim, header


class PrefixKeyError(SnapshotError):
    """A prefix-store key that is not a :func:`prefix_key` digest."""


_KEY_SHAPE = re.compile(r"[0-9a-f]{64}")


def check_prefix_key(key: Any) -> str:
    """``key`` if it has the shape of a :func:`prefix_key` digest (64
    lowercase hex characters), else :class:`PrefixKeyError` — keys reach
    the store from the serve wire and must never name a path."""
    if not isinstance(key, str) or _KEY_SHAPE.fullmatch(key) is None:
        raise PrefixKeyError(
            f"bad prefix key {key!r}: expected 64 lowercase hex characters"
        )
    return key


class PrefixBlobError(SnapshotError):
    """A blob offered to the prefix store that is not a checkpoint
    captured for the key it is offered under."""


class PrefixStore:
    """Content-addressed store of warm-start prefix checkpoints."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_prefix_dir()

    def _path_of(self, key: str) -> Path:
        check_prefix_key(key)
        return self.root / "objects" / key[:2] / f"{key}.ckpt"

    def get(self, key: str) -> bytes | None:
        """The stored prefix blob, or None on miss. Integrity is the
        caller's problem: :func:`repro.snapshot.read_header` and the
        container's trailing digest reject truncated or corrupt blobs,
        and the runner falls back to a cold run on any SnapshotError."""
        try:
            return self._path_of(key).read_bytes()
        except OSError:
            return None

    def put_if_absent(self, key: str, blob: bytes) -> bool:
        """Persist ``blob`` under ``key`` unless a prefix already exists.

        Atomic and first-writer-wins: the blob lands via a same-directory
        temp file hard-linked into place, so two jobs racing to capture
        the same prefix can never tear or double-write it. Returns True
        iff this call stored the blob.

        Blobs reach the store from the serve wire, so ``blob`` must be a
        well-formed checkpoint whose header stamps ``prefix_key == key``,
        else :class:`PrefixBlobError`: one parked under another group's
        key would silently break every later warm start of that group.
        Only the JSON header is read (framing and digest checked, nothing
        unpickled).
        """
        path = self._path_of(key)
        try:
            header = read_header(blob)
        except SnapshotError as exc:
            raise PrefixBlobError(f"refusing prefix {key}: {exc}") from None
        stamped = header.get("prefix_key") if isinstance(header, dict) else None
        if stamped != key:
            raise PrefixBlobError(
                f"refusing prefix {key}: the checkpoint was captured for "
                f"prefix {stamped!r}"
            )
        if path.exists():
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=key[:8], suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            return True
        finally:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - tmp already gone
                pass

    def __contains__(self, key: str) -> bool:
        return self._path_of(key).exists()

    def entries(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.ckpt"))

    def paths(self) -> list[Path]:
        """Every stored prefix blob, sorted for stable listings."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.ckpt"))
