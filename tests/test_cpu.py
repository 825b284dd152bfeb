"""Unit tests for the core: load barriers, store barriers, faults."""

from __future__ import annotations

import pytest

from repro.errors import CapabilityError
from repro.machine.capability import Capability, Perm
from repro.machine.machine import Machine
from repro.machine.trap import CapStoreFault, LoadGenerationFault, PageFault


@pytest.fixture
def machine() -> Machine:
    m = Machine(memory_bytes=1 << 20)
    for vpn in range(1, 9):
        m.pagetable.map_page(vpn)
    return m


@pytest.fixture
def core(machine):
    return machine.cores[0]


def rw_cap(addr=0x1000, length=0x1000) -> Capability:
    return Capability.root(addr, length)


class TestDataAccess:
    def test_load_data_charges_cycles(self, core):
        result = core.load_data(rw_cap(), 64)
        assert result.cycles > 0

    def test_store_data_clears_tags(self, core, machine):
        cap = rw_cap()
        core.store_cap(cap, rw_cap(0x2000, 16))
        core.store_data(cap, 16)
        assert machine.memory.load_cap(0x1000) is None

    def test_unmapped_page_faults(self, core):
        with pytest.raises(PageFault):
            core.load_data(rw_cap(0x9000, 0x1000), 8)

    def test_guard_page_faults(self, core, machine):
        machine.pagetable.map_page(0x20, guard=True)
        with pytest.raises(PageFault):
            core.load_data(rw_cap(0x20000, 0x100), 8)

    def test_miss_then_hit_cycle_difference(self, core):
        first = core.load_data(rw_cap(), 64).cycles
        second = core.load_data(rw_cap(), 64).cycles
        assert first > second


class TestCapStoreBarrier:
    def test_store_sets_cap_dirty(self, core, machine):
        core.store_cap(rw_cap(), rw_cap(0x2000, 16))
        assert machine.pagetable.require(1).cap_dirty

    def test_untagged_store_does_not_dirty(self, core, machine):
        core.store_cap(rw_cap(), rw_cap(0x2000, 16).cleared())
        assert not machine.pagetable.require(1).cap_dirty

    def test_store_after_sweep_sets_redirtied(self, core, machine):
        pte = machine.pagetable.require(1)
        pte.swept_this_epoch = True
        core.store_cap(rw_cap(), rw_cap(0x2000, 16))
        assert pte.redirtied

    def test_store_before_sweep_not_redirtied(self, core, machine):
        core.store_cap(rw_cap(), rw_cap(0x2000, 16))
        assert not machine.pagetable.require(1).redirtied

    def test_cap_store_forbidden_page_traps(self, core, machine):
        machine.pagetable.map_page(0x30, cap_store=False)
        dst = rw_cap(0x30000, 0x1000)
        with pytest.raises(CapStoreFault):
            core.store_cap(dst, rw_cap(0x2000, 16))
        # ...but untagged data through the same path is fine.
        core.store_cap(dst, rw_cap(0x2000, 16).cleared())

    def test_store_without_permission_is_capability_error(self, core):
        weak = rw_cap().derive(0x1000, 16, Perm.LOAD | Perm.LOAD_CAP)
        with pytest.raises(CapabilityError):
            core.store_cap(weak, rw_cap(0x2000, 16))


class TestCapLoadBarrier:
    def _store_then_flip(self, core, machine):
        cap = rw_cap()
        core.store_cap(cap, rw_cap(0x2000, 16))
        core.clg ^= 1  # epoch began: core generation moves ahead of PTEs
        return cap

    def test_tagged_load_with_stale_generation_faults(self, core, machine):
        cap = self._store_then_flip(core, machine)
        with pytest.raises(LoadGenerationFault):
            core.load_cap(cap)
        assert core.lg_faults == 1

    def test_untagged_load_never_faults(self, core, machine):
        self._store_then_flip(core, machine)
        empty = rw_cap().with_address(0x1800)
        assert core.load_cap(empty).value is None  # no trap, no tag

    def test_load_after_pte_update_with_stale_tlb_faults(self, core, machine):
        """The spurious-fault path of §4.3: PTE is current, TLB is not."""
        cap = self._store_then_flip(core, machine)
        pte = machine.pagetable.require(1)
        pte.lg = core.clg  # revoker healed the page...
        with pytest.raises(LoadGenerationFault):
            core.load_cap(cap)  # ...but our TLB snapshot is stale
        cycles = core.resolve_spurious_lg_fault(1)
        assert cycles > 0
        assert core.load_cap(cap).value is not None  # retry succeeds

    def test_matching_generation_no_fault(self, core, machine):
        cap = rw_cap()
        core.store_cap(cap, rw_cap(0x2000, 16))
        loaded = core.load_cap(cap)
        assert loaded.value is not None and loaded.value.tag

    def test_flip_clg_touches_no_pte(self, core, machine):
        before = [(p.vpn, p.lg) for p in machine.pagetable.mapped_pages()]
        core.flip_clg()
        after = [(p.vpn, p.lg) for p in machine.pagetable.mapped_pages()]
        assert before == after
        assert core.clg == 1

    def test_load_without_loadcap_permission_rejected(self, core):
        weak = rw_cap().derive(0x1000, 16, Perm.LOAD | Perm.STORE)
        with pytest.raises(CapabilityError):
            core.load_cap(weak)


class TestContention:
    def test_sweep_inflates_miss_penalty(self, machine):
        a, b = machine.cores[0], machine.cores[1]
        quiet = a.load_data(rw_cap(0x1000, 64), 64).cycles
        machine.bus.sweep_begin()
        loud = b.load_data(rw_cap(0x1000, 64), 64).cycles
        machine.bus.sweep_end()
        assert loud > quiet

    def test_tlb_shootdown_invalidates_all_cores(self, machine):
        for c in machine.cores:
            c.load_data(rw_cap(), 8)
        cost = machine.tlb_shootdown(1)
        assert cost > 0
        for c in machine.cores:
            assert c.tlb.lookup(1) is None


# --- Fused entry points vs the reference path --------------------------------


def _warm(m: Machine, *addrs: int) -> None:
    """Fill core 0's TLB and cache for ``addrs`` (dirtying some lines)."""
    core = m.cores[0]
    for addr in addrs:
        core.store_data(rw_cap(addr & ~0xFFF, 0x1000).with_address(addr), 16)


def _stored(m: Machine, addr: int = 0x1000) -> None:
    """A tagged capability at ``addr``, TLB and cache warm."""
    m.cores[0].store_cap(rw_cap(addr & ~0xFFF, 0x1000).with_address(addr), rw_cap(0x2000, 16))


def _guarded(m: Machine) -> None:
    m.pagetable.map_page(0x20, guard=True)
    m.pagetable.map_page(0x1F)
    _warm(m, 0x1F000)


def _always_trap(m: Machine) -> None:
    _stored(m)
    m.pagetable.require(1).always_trap_cap_loads = True
    m.cores[0].tlb.fill(1, m.pagetable.require(1))


def _no_cap_store(m: Machine) -> None:
    m.pagetable.map_page(0x30, cap_store=False)
    _warm(m, 0x30000)


def _stale_generation(m: Machine) -> None:
    _stored(m)
    m.cores[0].clg ^= 1


def _swept(m: Machine) -> None:
    _warm(m, 0x1000)
    m.pagetable.require(1).swept_this_epoch = True


#: (prepare, operation, capability, address, size or stored value). Every
#: fallback of the fused path, then the fast path on warm state.
FUSED_CASES = {
    "out-of-bounds": (_warm, "load_data", rw_cap(0x1000, 0x100), 0x10F8, 16),
    "below-base": (_warm, "store_data", rw_cap(0x1100, 0x100), 0x10F0, 16),
    "untagged": (_warm, "load_data", rw_cap().cleared(), 0x1000, 8),
    "untagged-cap-load": (_stored, "load_cap", rw_cap().cleared(), 0x1000, None),
    "no-store-perm": (
        _warm, "store_data", rw_cap().derive(0x1000, 64, Perm.LOAD), 0x1000, 8,
    ),
    "no-load-cap-perm": (
        _stored, "load_cap", rw_cap().derive(0x1000, 64, Perm.data_rw()), 0x1000, None,
    ),
    "no-store-cap-perm": (
        _stored, "store_cap", rw_cap().derive(0x1000, 64, Perm.data_rw()), 0x1000,
        rw_cap(0x2000, 16),
    ),
    "span-into-guard": (_guarded, "load_data", rw_cap(0x1F000, 0x2000), 0x1FFE0, 64),
    "unmapped": (_warm, "store_data", rw_cap(0x9000, 0x1000), 0x9000, 8),
    "tlb-miss-load": (_warm, "load_data", rw_cap(0x3000, 0x1000), 0x3010, 40),
    "tlb-miss-store-cap": (_warm, "store_cap", rw_cap(0x4000), 0x4000, rw_cap(0x2000, 16)),
    "page-crossing": (_warm, "store_data", rw_cap(0x1000, 0x2000), 0x1FF0, 64),
    "five-lines": (_warm, "load_data", rw_cap(), 0x1030, 260),
    "always-trap-load": (_always_trap, "load_cap", rw_cap(), 0x1000, None),
    "always-trap-store": (_always_trap, "store_cap", rw_cap(), 0x1010, rw_cap(0x2000, 16)),
    "no-cap-store-page": (
        _no_cap_store, "store_cap", rw_cap(0x30000), 0x30000, rw_cap(0x2000, 16),
    ),
    "untagged-to-no-cap-store-page": (
        _no_cap_store, "store_cap", rw_cap(0x30000), 0x30000, rw_cap(0x2000, 16).cleared(),
    ),
    "lg-fault": (_stale_generation, "load_cap", rw_cap(), 0x1000, None),
    "misaligned-cap-load": (_stored, "load_cap", rw_cap(), 0x1008, None),
    "misaligned-cap-store": (_stored, "store_cap", rw_cap(), 0x1008, rw_cap(0x2000, 16)),
    "load-hit": (_stored, "load_data", rw_cap(), 0x1000, 64),
    "load-miss-evicts": (_warm, "load_data", rw_cap(), 0x1100, 200),
    "store-clears-tags": (_stored, "store_data", rw_cap(), 0x1008, 16),
    "cap-load-hit": (_stored, "load_cap", rw_cap(), 0x1000, None),
    "cap-load-untagged-stale-gen": (_stale_generation, "load_cap", rw_cap(), 0x1010, None),
    "cap-store-redirties": (_swept, "store_cap", rw_cap(), 0x1020, rw_cap(0x2000, 16)),
    "cap-store-untagged": (_stored, "store_cap", rw_cap(), 0x1000, rw_cap(0x2000, 16).cleared()),
}


def _machine_state(m: Machine) -> dict:
    return {
        "cores": [
            (
                list(c.cache._lines.items()),
                c.cache.hits,
                c.cache.misses,
                sorted((vpn, vars(e)) for vpn, e in c.tlb._entries.items()),
                c.tlb.refills,
                c.lg_faults,
                c.lg_faults_spurious,
            )
            for c in m.cores
        ],
        "bus": {s: (b.reads, b.writes) for s, b in m.bus.counters.items()},
        "ptes": [vars(p).copy() for p in m.pagetable.mapped_pages()],
        "tags": sorted((g, cap.base) for g, cap in m.memory.iter_tagged()),
    }


def _outcome(call) -> tuple:
    try:
        return ("ok", call())
    except Exception as exc:  # the type and message are what is compared
        return (type(exc).__name__, str(exc))


def _reference(core, op, cap, addr, arg):
    cur = cap.with_address(addr)
    if op == "load_cap":
        result = core.load_cap(cur)
        return result.value, result.cycles
    if op == "store_cap":
        return core.store_cap(cur, arg).cycles
    return getattr(core, op)(cur, arg).cycles


def _fused(core, op, cap, addr, arg):
    if op == "load_cap":
        return core.load_cap_at(cap, addr)
    return getattr(core, f"{op}_at")(cap, addr, arg)


class TestFusedEntryPoints:
    """Each fused entry point returns what the reference path returns,
    raises the same exception with the same message, and leaves the same
    machine state: cache counters and LRU order, bus counters, TLB
    contents and refills, LG-fault counts, PTE bits and tags."""

    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_matches_reference(self, name):
        prepare, op, cap, addr, arg = FUSED_CASES[name]
        outcomes, states = [], []
        for path in (_reference, _fused):
            # Eight cache lines: the warm-up lines get evicted.
            m = Machine(memory_bytes=1 << 20, cache_bytes=8 * 64)
            for vpn in range(1, 9):
                m.pagetable.map_page(vpn)
            prepare(m)
            outcomes.append(_outcome(lambda: path(m.cores[0], op, cap, addr, arg)))
            states.append(_machine_state(m))
        assert outcomes[1] == outcomes[0]
        assert states[1] == states[0]

    def test_lg_fault_retry(self, machine, core):
        """The load-barrier retry: a faulting fused load succeeds once the
        page is healed, exactly as the reference load does."""
        _stale_generation(machine)
        cap = rw_cap()
        with pytest.raises(LoadGenerationFault):
            core.load_cap_at(cap, 0x1000)
        machine.pagetable.require(1).lg = core.clg
        core.resolve_spurious_lg_fault(1)
        value, cycles = core.load_cap_at(cap, 0x1000)
        assert value == rw_cap(0x2000, 16)
        assert cycles == core.costs.mem_hit + core.costs.cap_access_extra
        assert core.lg_faults == 1 and core.lg_faults_spurious == 1
