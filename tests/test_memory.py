"""Unit and property tests for tagged memory."""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import given, strategies as st

from repro.errors import VMError
from repro.machine.capability import Capability
from repro.machine.costs import GRANULE_BYTES, GRANULES_PER_PAGE, PAGE_BYTES
from repro.machine.memory import TaggedMemory


@pytest.fixture
def mem() -> TaggedMemory:
    return TaggedMemory(1 << 20)


def a_cap(addr=0x4000) -> Capability:
    return Capability.root(addr, 64)


class TestConstruction:
    def test_sizes(self, mem):
        assert mem.num_granules == (1 << 20) // 16
        assert mem.num_pages == (1 << 20) // 4096

    def test_rejects_non_page_multiple(self):
        with pytest.raises(VMError):
            TaggedMemory(4097)

    def test_rejects_zero(self):
        with pytest.raises(VMError):
            TaggedMemory(0)


class TestCapStorage:
    def test_store_load_roundtrip(self, mem):
        c = a_cap()
        mem.store_cap(0x1000, c)
        assert mem.load_cap(0x1000) == c

    def test_untagged_slot_loads_none(self, mem):
        assert mem.load_cap(0x1000) is None

    def test_storing_untagged_clears_slot(self, mem):
        mem.store_cap(0x1000, a_cap())
        mem.store_cap(0x1000, a_cap().cleared())
        assert mem.load_cap(0x1000) is None
        assert not mem.tags[0x1000 // GRANULE_BYTES]

    def test_unaligned_cap_access_rejected(self, mem):
        with pytest.raises(VMError):
            mem.store_cap(0x1001, a_cap())
        with pytest.raises(VMError):
            mem.load_cap(0x1008 + 4)

    def test_out_of_memory_rejected(self, mem):
        with pytest.raises(VMError):
            mem.load_cap(mem.size_bytes)

    def test_tag_bit_mirrors_dict(self, mem):
        mem.store_cap(0x2000, a_cap())
        g = 0x2000 // GRANULE_BYTES
        assert mem.tags[g]
        mem.clear_tag_at_granule(g)
        assert not mem.tags[g]
        assert mem.load_cap(0x2000) is None


class TestDataStoresClearTags:
    def test_exact_overwrite(self, mem):
        mem.store_cap(0x1000, a_cap())
        mem.store_data(0x1000, 16)
        assert mem.load_cap(0x1000) is None

    def test_partial_overwrite_kills_capability(self, mem):
        mem.store_cap(0x1000, a_cap())
        mem.store_data(0x1008, 4)  # inside the granule
        assert mem.load_cap(0x1000) is None

    def test_straddling_overwrite_kills_both(self, mem):
        mem.store_cap(0x1000, a_cap())
        mem.store_cap(0x1010, a_cap())
        mem.store_data(0x1008, 16)  # spans both granules
        assert mem.load_cap(0x1000) is None
        assert mem.load_cap(0x1010) is None

    def test_adjacent_store_leaves_cap(self, mem):
        mem.store_cap(0x1000, a_cap())
        mem.store_data(0x1010, 16)
        assert mem.load_cap(0x1000) is not None

    def test_large_store_uses_vector_path(self, mem):
        # > 64 granules exercises the numpy branch.
        for i in range(8):
            mem.store_cap(0x1000 + i * 256, a_cap())
        mem.store_data(0x1000, 8 * 256)
        assert mem.total_tags == 0

    @pytest.mark.parametrize(
        "offset,nbytes",
        [(-8, 64), (4096, 16), (-16, 1600), (-1, 2)],
    )
    def test_store_past_the_end_rejected(self, mem, offset, nbytes):
        """Offsets are from the end of memory; each store runs past it."""
        mem.store_cap(mem.size_bytes - 16, a_cap())
        with pytest.raises(VMError, match="data store out of memory"):
            mem.store_data(mem.size_bytes + offset, nbytes)
        assert mem.load_cap(mem.size_bytes - 16) is not None

    def test_negative_address_store_rejected(self, mem):
        with pytest.raises(VMError, match="data store out of memory"):
            mem.store_data(-16, 32)

    def test_store_ending_at_the_end_accepted(self, mem):
        mem.store_cap(mem.size_bytes - 16, a_cap())
        mem.store_data(mem.size_bytes - 64, 64)
        assert mem.load_cap(mem.size_bytes - 16) is None

    def test_zero_length_store_is_noop(self, mem):
        mem.store_cap(0x1000, a_cap())
        mem.store_data(0x1000, 0)
        assert mem.load_cap(0x1000) is not None

    @given(
        cap_g=st.integers(0, 255),
        store_off=st.integers(0, 4080),
        nbytes=st.integers(1, 512),
    )
    def test_tag_cleared_iff_overlapped(self, cap_g, store_off, nbytes):
        mem = TaggedMemory(1 << 16)
        cap_addr = cap_g * GRANULE_BYTES
        mem.store_cap(cap_addr, Capability.root(cap_addr, 16))
        mem.store_data(store_off, nbytes)
        overlap = store_off < cap_addr + 16 and cap_addr < store_off + nbytes
        assert (mem.load_cap(cap_addr) is None) == overlap


class TestPageQueries:
    def test_tagged_granules_in_page(self, mem):
        mem.store_cap(0x1000, a_cap())
        mem.store_cap(0x1FF0, a_cap())
        vpn = 0x1000 // PAGE_BYTES
        granules = mem.tagged_granules_in_page(vpn)
        assert granules == [0x1000 // 16, 0x1FF0 // 16]
        assert mem.page_tag_count(vpn) == 2
        assert mem.page_has_tags(vpn)

    def test_other_pages_unaffected(self, mem):
        mem.store_cap(0x1000, a_cap())
        assert not mem.page_has_tags(0)
        assert mem.tagged_granules_in_page(2) == []

    def test_zero_page_clears_everything(self, mem):
        vpn = 3
        for i in range(GRANULES_PER_PAGE):
            mem.store_cap(vpn * PAGE_BYTES + i * 16, a_cap())
        assert mem.page_tag_count(vpn) == GRANULES_PER_PAGE
        mem.zero_page(vpn)
        assert mem.page_tag_count(vpn) == 0
        assert mem.total_tags == 0

    def test_iter_tagged_matches_queries(self, mem):
        addrs = [0x1000, 0x2000, 0x3010]
        for addr in addrs:
            mem.store_cap(addr, a_cap())
        seen = {g * GRANULE_BYTES for g, _ in mem.iter_tagged()}
        assert seen == set(addrs)


class TestVectorViews:
    """The per-page tag/base arrays feeding the vectorized sweep."""

    def test_cap_bases_track_stores(self, mem):
        cap = Capability.root(0x4000, 64)
        mem.store_cap(0x1000, cap)
        assert mem.cap_bases[0x1000 // GRANULE_BYTES] == 0x4000

    def test_page_tag_arrays_are_views(self, mem):
        mem.store_cap(0x1000, Capability.root(0x8000, 32))
        vpn = 0x1000 // PAGE_BYTES
        tags, bases = mem.page_tag_arrays(vpn)
        assert len(tags) == GRANULES_PER_PAGE and len(bases) == GRANULES_PER_PAGE
        off = (0x1000 % PAGE_BYTES) // GRANULE_BYTES
        assert tags[off] and bases[off] == 0x8000
        # Live views: a store through the memory shows up immediately.
        mem.store_cap(0x1010, Capability.root(0x9000, 32))
        assert tags[off + 1] and bases[off + 1] == 0x9000

    def test_bases_only_meaningful_under_tags(self, mem):
        mem.store_cap(0x1000, Capability.root(0x8000, 32))
        mem.store_data(0x1000, 16)  # clears the tag, base value is stale
        tags, bases = mem.page_tag_arrays(0x1000 // PAGE_BYTES)
        assert not tags[0]
        granules = mem.tagged_granules_in_page(0x1000 // PAGE_BYTES)
        assert granules == []

    def test_clear_granules_matches_scalar_clear(self, mem):
        import numpy as np

        for i in range(4):
            mem.store_cap(0x2000 + i * GRANULE_BYTES, a_cap())
        g0 = 0x2000 // GRANULE_BYTES
        mem.clear_granules(np.array([g0, g0 + 2]))
        assert mem.tagged_granules_in_page(0x2000 // PAGE_BYTES) == [g0 + 1, g0 + 3]
        assert mem.load_cap(0x2000) is None
        assert mem.load_cap(0x2020) is None
        assert mem.total_tags == 2


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_successive_machines_do_not_grow_resident_memory():
    """One simulation's machine after another in a process (a benchmark
    pass, a warm worker): the tag and shadow arrays stay lazily zeroed,
    so resident memory does not grow by their 32 MiB once heap blocks
    that outlive each machine fragment the allocator's heap. Runs in a
    fresh interpreter, whose heap this suite has not touched."""
    import subprocess

    import repro

    code = (
        "import gc, os\n"
        "from repro.kernel.shadow import RevocationBitmap\n"
        "from repro.machine.memory import TaggedMemory\n"
        "def resident():\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
        "keep = []\n"
        "for i in range(12):\n"
        "    if i == 1:\n"
        "        before = resident()\n"
        "    mem = TaggedMemory(256 << 20)\n"
        "    keep.append(bytearray((i + 1) << 14))\n"
        "    shadow = RevocationBitmap(256 << 20)\n"
        "    keep.append(bytearray((i + 1) << 14))\n"
        "    del mem, shadow\n"
        "    gc.collect()\n"
        "print((resident() - before) >> 20)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert int(out.stdout) < 8
