"""A size-class slab allocator in the style of snmalloc [33].

The paper's user-space heap is snmalloc, LD_PRELOAD-ed under every
condition (baseline included), with the mrs shim layered on top for the
temporal-safety conditions. This model reproduces the properties the
evaluation depends on:

- allocations are **bounded capabilities** derived from the chunk's root
  capability (spatial safety; §2.1);
- all sizes are rounded to 16-byte granules so revocation-bitmap painting
  is exact;
- address space is requested from the kernel in chunks and **never
  returned** (§6.2), so quarantined memory keeps pages resident — the
  fig. 3 RSS effect;
- freed memory is not poisoned; its contents (and any stale capabilities
  in it) survive untouched until *reuse*, at which point the region is
  zeroed (§2.2.2: deferral of zeroing to reuse).

Double frees and frees of non-heap pointers raise
:class:`~repro.errors.AllocatorError` deterministically.
"""

from __future__ import annotations

import bisect

from dataclasses import dataclass

from repro.errors import AllocatorError
from repro.kernel.kernel import Kernel
from repro.machine.capability import Capability, Perm
from repro.machine.costs import GRANULE_BYTES, PAGE_BYTES

#: Permissions of every allocation, built once: ``Perm.all()`` costs four
#: ``IntFlag`` operations per call.
_ALL_PERMS = Perm.all()

#: Chunk size requested from the kernel when a size class runs dry.
CHUNK_BYTES = 16 * PAGE_BYTES

#: Allocations above this go to their own page-multiple chunk.
LARGE_THRESHOLD = CHUNK_BYTES // 2

#: Small size classes, in bytes (granule multiples, snmalloc-style
#: pow2 + half-steps spacing).
SIZE_CLASSES: tuple[int, ...] = (
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768,
    1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576, 32768,
)


def size_class_of(nbytes: int) -> int:
    """Smallest size class holding ``nbytes``; -1 for large allocations."""
    if nbytes > LARGE_THRESHOLD:
        return -1
    for i, sc in enumerate(SIZE_CLASSES):
        if nbytes <= sc:
            return i
    return -1


@dataclass(frozen=True)
class FreedRegion:
    """A freed allocation: what quarantine tracks out-of-band (§6.3's
    contrast — Cornucopia-era shims must keep quarantine metadata outside
    the freed memory, since clients may still read it)."""

    addr: int
    size: int  # rounded (granule-multiple) size actually reserved
    size_class: int  # -1 for large


class SnMalloc:
    """The allocator. ``malloc``/``free`` return cycle costs alongside
    their results; the shim layers (baseline or mrs) own reuse policy via
    :meth:`release`."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.costs = kernel.machine.costs
        #: Free lists per size class (addresses).
        self._free_lists: list[list[int]] = [[] for _ in SIZE_CLASSES]
        #: Bump state per size class: (next_addr, end_addr) of current slab.
        self._slabs: list[tuple[int, int]] = [(0, 0) for _ in SIZE_CLASSES]
        #: Free lists for large (own-chunk) allocations, by rounded size.
        self._large_free: dict[int, list[int]] = {}
        #: Live allocation metadata: base address -> rounded size, class.
        self._live: dict[int, tuple[int, int]] = {}
        #: Chunk root capabilities, sorted by base (bump allocation).
        self._chunks: list[Capability] = []
        self._chunk_bases: list[int] = []
        self.allocated_bytes = 0
        self.total_allocated_bytes = 0  # lifetime sum (table 2's "Sum Freed" input)
        self.total_freed_bytes = 0
        self.malloc_calls = 0
        self.free_calls = 0
        #: Opt-in address trace (:mod:`repro.check`'s differential oracle
        #: compares placement across strategies). ``None`` — the default —
        #: costs one attribute test per malloc.
        self.trace_addresses: list[int] | None = None

    # --- Internals -----------------------------------------------------------

    def _chunk_for(self, addr: int, size: int) -> Capability:
        """The chunk capability covering ``[addr, addr+size)``.

        Chunks are handed out by a bump allocator, so ``self._chunks`` is
        sorted by base address and bisection finds the owner.
        """
        i = bisect.bisect_right(self._chunk_bases, addr) - 1
        if i >= 0:
            chunk = self._chunks[i]
            if chunk.base <= addr and addr + size <= chunk.top:
                return chunk
        raise AllocatorError(f"address {addr:#x} not within any heap chunk")

    def _grow(self, size_class: int) -> int:
        """Map a fresh chunk for a size class; returns cycles."""
        cap, _ = self.kernel.address_space.mmap(CHUNK_BYTES)
        self._chunks.append(cap)
        self._chunk_bases.append(cap.base)
        self._slabs[size_class] = (cap.base, cap.top)
        return self.costs.malloc_slow_extra

    def _round(self, nbytes: int) -> int:
        return max(
            GRANULE_BYTES,
            (nbytes + GRANULE_BYTES - 1) & ~(GRANULE_BYTES - 1),
        )

    # --- Public allocator surface ------------------------------------------------

    def malloc(self, nbytes: int) -> tuple[Capability, int]:
        """Allocate ``nbytes``; returns (bounded capability, cycles)."""
        if nbytes <= 0:
            raise AllocatorError(f"malloc of non-positive size {nbytes}")
        self.malloc_calls += 1
        cycles = self.costs.malloc_fast
        sc = size_class_of(nbytes)
        if sc == -1:
            rounded = self._round(nbytes)
            free_list = self._large_free.get(rounded)
            if free_list:
                addr = free_list.pop()
                self.kernel.machine.memory.store_data(addr, rounded)
                cycles += rounded // GRANULE_BYTES
            else:
                cap, _ = self.kernel.address_space.mmap(rounded)
                self._chunks.append(cap)
                self._chunk_bases.append(cap.base)
                addr = cap.base
                cycles += self.costs.malloc_slow_extra
            user = self._chunk_for(addr, rounded).derive(addr, rounded, _ALL_PERMS)
        else:
            rounded = SIZE_CLASSES[sc]
            free_list = self._free_lists[sc]
            if free_list:
                addr = free_list.pop()
                # Deferred zeroing at reuse (§2.2.2 fn. 7): stale contents
                # and tags die now, not at free.
                self.kernel.machine.memory.store_data(addr, rounded)
                cycles += rounded // GRANULE_BYTES  # zeroing, ~1 cycle/granule
            else:
                next_addr, end = self._slabs[sc]
                if next_addr + rounded > end:
                    cycles += self._grow(sc)
                    next_addr, end = self._slabs[sc]
                addr = next_addr
                self._slabs[sc] = (next_addr + rounded, end)
            user = self._chunk_for(addr, rounded).derive(addr, rounded, _ALL_PERMS)
        self._live[addr] = (rounded, sc)
        self.allocated_bytes += rounded
        self.total_allocated_bytes += rounded
        if self.trace_addresses is not None:
            self.trace_addresses.append(addr)
        return user, cycles

    def free(self, cap: Capability) -> tuple[FreedRegion, int]:
        """Tear down the allocation ``cap`` points to; returns the freed
        region and cycles. The region is *not* reusable until the owning
        shim calls :meth:`release` (quarantine lives between the two)."""
        meta = self._live.pop(cap.base, None)
        if meta is None:
            raise AllocatorError(
                f"free of {cap.base:#x}: not a live allocation (double free "
                f"or foreign pointer)"
            )
        rounded, sc = meta
        self.allocated_bytes -= rounded
        self.total_freed_bytes += rounded
        self.free_calls += 1
        return FreedRegion(cap.base, rounded, sc), self.costs.free_fast

    def release(self, region: FreedRegion) -> int:
        """Return a freed (and, under mrs, revoked) region to the free
        lists; returns cycles."""
        if region.size_class >= 0:
            self._free_lists[region.size_class].append(region.addr)
        else:
            # Large regions' chunks stay mapped (address space is never
            # returned, §6.2) and are recycled by exact size.
            self._large_free.setdefault(region.size, []).append(region.addr)
        return self.costs.free_fast

    # --- Introspection -----------------------------------------------------------

    def is_live(self, addr: int) -> bool:
        return addr in self._live

    @property
    def live_allocations(self) -> int:
        return len(self._live)
