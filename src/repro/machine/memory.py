"""Tagged memory: the capability-tag substrate (§2.1, [30]).

Every naturally-aligned 16-byte granule of memory carries one out-of-band
tag bit distinguishing a valid capability from plain data. This model keeps
the tag bits in a numpy array (fast page-granular scans, exactly what the
revocation sweep needs) and the capability values themselves in a dict
keyed by granule index (only tagged granules occupy space).

Plain data *values* are not stored: no behaviour in the paper's evaluation
depends on data contents, only on where capabilities are and what they
point to. Data stores still matter — they clear tags — and are modelled.

The simulation runs one process under test (as does the paper's harness),
so memory is addressed by virtual address directly; the page table layer
(:mod:`repro.machine.pagetable`) carries the per-page metadata the
revokers manipulate.
"""

from __future__ import annotations

import mmap
from typing import Iterator

import numpy as np

from repro.errors import VMError
from repro.machine.capability import Capability
from repro.machine.costs import GRANULE_BYTES, GRANULES_PER_PAGE, PAGE_BYTES


def zeroed_array(count: int, dtype: type) -> np.ndarray:
    """A zero-filled ``count``-element array on its own anonymous mapping.

    Only the pages a run touches are resident, and the mapping is
    returned to the OS when the array dies. A large ``np.zeros`` block
    comes from ``calloc`` instead: once glibc has freed one, it raises its
    mmap threshold, later blocks of that size are carved from the heap
    and zeroed in full, and every later simulation in the process then
    pays the whole per-granule array in resident memory.
    """
    itemsize = np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, count * itemsize), dtype=dtype)


class TaggedMemory:
    """A flat, tagged memory of ``size_bytes`` bytes.

    All addresses are byte addresses; capability slots must be granule
    (16-byte) aligned, as on real CHERI hardware.
    """

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_BYTES:
            raise VMError(f"memory size must be a positive page multiple: {size_bytes}")
        self.size_bytes = size_bytes
        self.num_granules = size_bytes // GRANULE_BYTES
        self.num_pages = size_bytes // PAGE_BYTES
        #: One bool per granule: the architectural tag bits.
        self.tags = zeroed_array(self.num_granules, bool)
        #: Per-granule capability *base* addresses, valid only where the
        #: tag bit is set (stale values persist after tag clears — every
        #: reader must mask through :attr:`tags` first). This is what lets
        #: the revocation sweep probe a whole page's capabilities against
        #: the shadow bitmap in one vector op.
        self.cap_bases = zeroed_array(self.num_granules, np.int64)
        #: Capability values for tagged granules only.
        self._caps: dict[int, Capability] = {}

    # --- Address arithmetic ---------------------------------------------

    @staticmethod
    def granule_of(addr: int) -> int:
        return addr // GRANULE_BYTES

    @staticmethod
    def page_of(addr: int) -> int:
        return addr // PAGE_BYTES

    def _check_granule_aligned(self, addr: int) -> int:
        if addr % GRANULE_BYTES:
            raise VMError(f"capability access must be 16-byte aligned: {addr:#x}")
        if not 0 <= addr < self.size_bytes:
            raise VMError(f"address out of simulated memory: {addr:#x}")
        return addr // GRANULE_BYTES

    # --- Capability accesses ----------------------------------------------

    def store_cap(self, addr: int, cap: Capability) -> None:
        """Store a capability at ``addr``; sets the granule's tag if the
        capability is valid, clears it otherwise (storing an untagged value
        is just a data store of its bit pattern)."""
        g = self._check_granule_aligned(addr)
        if cap.tag:
            self.tags[g] = True
            self.cap_bases[g] = cap.base
            self._caps[g] = cap
        else:
            self.tags[g] = False
            self._caps.pop(g, None)

    def load_cap(self, addr: int) -> Capability | None:
        """Load the capability at ``addr``; None if the granule is untagged.

        Reads go through the capability dict (the numpy tag array mirrors
        it for fast page-granular scans; single-element numpy indexing is
        too slow for this hot path).
        """
        g = self._check_granule_aligned(addr)
        return self._caps.get(g)

    def clear_tag_at_granule(self, granule: int) -> None:
        """Revoke: clear the tag of one granule (the stored bit pattern
        becomes dead data)."""
        self.tags[granule] = False
        self._caps.pop(granule, None)

    def cap_at_granule(self, granule: int) -> Capability:
        return self._caps[granule]

    # --- Data accesses -----------------------------------------------------

    def store_data(self, addr: int, nbytes: int) -> None:
        """A data store: clears the tags of every granule it overlaps
        (partial overwrites of a capability destroy it, as in hardware)."""
        if nbytes <= 0:
            return
        if not (0 <= addr and addr + nbytes <= self.size_bytes):
            raise VMError(f"data store out of memory: {addr:#x}+{nbytes}")
        g0 = addr // GRANULE_BYTES
        g1 = (addr + nbytes - 1) // GRANULE_BYTES
        caps = self._caps
        if g1 - g0 < 64:
            # Small stores: dict membership beats numpy slice overhead.
            for g in range(g0, g1 + 1):
                if g in caps:
                    del caps[g]
                    self.tags[g] = False
        elif self.tags[g0 : g1 + 1].any():
            for off in np.flatnonzero(self.tags[g0 : g1 + 1]):
                g = g0 + int(off)
                caps.pop(g, None)
            self.tags[g0 : g1 + 1] = False

    # --- Page-granular queries (the sweep's working set) --------------------

    def page_granule_range(self, vpn: int) -> tuple[int, int]:
        g0 = vpn * GRANULES_PER_PAGE
        return g0, g0 + GRANULES_PER_PAGE

    def tagged_granules_in_page(self, vpn: int) -> list[int]:
        """Granule indices within page ``vpn`` that currently hold tags."""
        g0, g1 = self.page_granule_range(vpn)
        return [int(g) + g0 for g in np.flatnonzero(self.tags[g0:g1])]

    def page_tag_arrays(self, vpn: int) -> tuple[np.ndarray, np.ndarray]:
        """(tags, bases) views over page ``vpn``'s granules.

        Both are live numpy views (no copies); ``bases`` entries are only
        meaningful where the corresponding ``tags`` entry is True. This is
        the sweep fast path's input: probe every tagged granule's base
        against the revocation bitmap in one gather.
        """
        g0, g1 = self.page_granule_range(vpn)
        return self.tags[g0:g1], self.cap_bases[g0:g1]

    def clear_granules(self, granules: np.ndarray) -> None:
        """Revoke a batch of granules: clear their tags as one masked
        store and drop their capability values (the vector counterpart of
        :meth:`clear_tag_at_granule`)."""
        self.tags[granules] = False
        pop = self._caps.pop
        for g in granules.tolist():
            pop(g, None)

    def page_tag_count(self, vpn: int) -> int:
        g0, g1 = self.page_granule_range(vpn)
        return int(self.tags[g0:g1].sum())

    def page_has_tags(self, vpn: int) -> bool:
        g0, g1 = self.page_granule_range(vpn)
        return bool(self.tags[g0:g1].any())

    def zero_page(self, vpn: int) -> None:
        """Clear every tag in a page (page reuse / unmap)."""
        g0, g1 = self.page_granule_range(vpn)
        if self.tags[g0:g1].any():
            for g in np.flatnonzero(self.tags[g0:g1]):
                self._caps.pop(int(g) + g0, None)
            self.tags[g0:g1] = False

    # --- Whole-memory iteration (verification helpers, not the sweep) ------

    def iter_tagged(self) -> Iterator[tuple[int, Capability]]:
        """Yield (granule_index, capability) for every tagged granule.

        Used by tests and invariant checkers; the revokers never get to
        iterate memory this cheaply.
        """
        for g, cap in self._caps.items():
            yield g, cap

    @property
    def total_tags(self) -> int:
        return len(self._caps)
