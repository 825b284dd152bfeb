"""The simulated CHERI core: barriered loads and stores.

A :class:`Core` executes architectural memory operations on behalf of the
thread currently scheduled on it, charging cycles and cache/bus traffic,
and raising the traps the revokers are built on:

- the **capability load barrier** (§4.1): every load of a *tagged* value is
  checked against the page's load-generation bit (via the core's TLB); a
  mismatch with the core's CLG control register traps. Flipping CLG is all
  Reloaded's stop-the-world phase does to the MMU — PTEs are untouched, so
  there are no shootdowns at epoch start;
- the **capability store barrier** (§2.2.4, §4.2): tagged stores set the
  page's capability-dirty bit, and re-set the "re-dirtied" bit if the
  current epoch's sweep has already visited the page.

Faults propagate as exceptions to the simulation layer, which runs the
kernel's handler on this same core (foreground fault handling, §4.3).

Each operation exists twice. The reference methods (``load_data``,
``store_data``, ``load_cap``, ``store_cap``) take a capability whose
cursor is already set and walk the check, TLB, barrier and cache layers
one call at a time. The fused ``*_at`` entry points take the capability,
the address and the size, do the common case without building a cursor
or an :class:`AccessResult`, and return plain cycles; anything off that
case replays through the reference method. :class:`ReferenceAccess` gives the reference methods the fused
signatures, so a workload selects either path once per run
(``REPRO_SCALAR=1`` picks the reference, see docs/PERF.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.cache import SPAN_BATCH_MIN_LINES, Bus, Cache
from repro.machine.capability import Capability, Perm
from repro.machine.costs import GRANULE_BYTES, LINE_BYTES, PAGE_BYTES, CostModel
from repro.machine.memory import TaggedMemory
from repro.machine.pagetable import PageTable, TLB, TLBEntry
from repro.machine.trap import CapStoreFault, LoadGenerationFault, PageFault
from repro.obs.tracer import TRACER

# Precomputed integer permission masks: IntFlag operator dispatch is too
# slow for per-access use (check_dereference accepts raw masks).
_PERM_LOAD = Perm.LOAD.value
_PERM_STORE = Perm.STORE.value
_PERM_LOAD_CAP = Perm.LOAD.value | Perm.LOAD_CAP.value
_PERM_STORE_CAP = Perm.STORE.value | Perm.STORE_CAP.value


@dataclass
class AccessResult:
    """Outcome of one architectural access: the value (for loads) and the
    cycles it consumed."""

    cycles: int
    value: Capability | None = None


class Core:
    """One CPU core: CLG register, TLB, private cache."""

    def __init__(
        self,
        core_id: int,
        memory: TaggedMemory,
        pagetable: PageTable,
        bus: Bus,
        costs: CostModel,
        cache_bytes: int = 1 << 20,
    ) -> None:
        self.core_id = core_id
        self.name = f"core{core_id}"
        self.memory = memory
        self.pagetable = pagetable
        self.bus = bus
        self.costs = costs
        self.cache = Cache(bus, self.name, cache_bytes)
        self.tlb = TLB()
        #: Capability load generation control register (§4.1).
        self.clg = 0
        #: Load-generation faults taken on this core.
        self.lg_faults = 0
        #: Of those, spurious ones resolved by a TLB refill (§4.3).
        self.lg_faults_spurious = 0

    # --- Internals ---------------------------------------------------------

    def _translate(self, addr: int, *, write: bool) -> tuple[int, TLBEntry]:
        """TLB lookup for ``addr``; faults on unmapped or guard pages."""
        vpn = addr // PAGE_BYTES
        entry = self.tlb.lookup(vpn)
        if entry is None:
            pte = self.pagetable.get(vpn)
            if pte is None or pte.guard:
                raise PageFault(vpn, addr, write)
            entry = self.tlb.fill(vpn, pte)
        return vpn, entry

    def _miss_penalty(self) -> int:
        """DRAM penalty, inflated while a sweep is streaming the bus (§5.6)."""
        penalty = self.costs.mem_miss
        if self.bus.sweep_active:
            penalty = int(penalty * (1.0 + self.costs.sweep_contention_factor))
        return penalty

    def _charge_access(self, addr: int, nbytes: int, write: bool) -> int:
        misses = self.cache.access_range(addr, nbytes, write)
        lines = (addr + nbytes - 1) // 64 - addr // 64 + 1
        cycles = lines * self.costs.mem_hit
        if misses:
            cycles += misses * self._miss_penalty()
        return cycles

    # --- Architectural operations ------------------------------------------

    def load_cap(self, cap: Capability) -> AccessResult:
        """Capability load through ``cap`` at its cursor.

        Raises :class:`LoadGenerationFault` when the loaded granule is
        tagged and the TLB's generation for the page disagrees with this
        core's CLG. Untagged loads never trap (§4.1 fn. 18 — the trap is
        conditioned on the loaded tag).
        """
        cap.check_dereference(GRANULE_BYTES, _PERM_LOAD_CAP)
        addr = cap.address
        vpn, entry = self._translate(addr, write=False)
        if entry.always_trap:
            # §7.6 disposition: any capability-width load traps,
            # regardless of the loaded tag (fn. 18's stronger variant).
            self.lg_faults += 1
            raise LoadGenerationFault(vpn, addr)
        value = self.memory.load_cap(addr)
        if value is not None and entry.lg != self.clg:
            self.lg_faults += 1
            raise LoadGenerationFault(vpn, addr)
        cycles = self._charge_access(addr, GRANULE_BYTES, write=False)
        return AccessResult(cycles + self.costs.cap_access_extra, value)

    def store_cap(self, cap: Capability, value: Capability) -> AccessResult:
        """Capability store of ``value`` through ``cap`` at its cursor.

        Tagged stores require the PTE's cap-store permission and drive the
        dirty tracking both concurrent revokers rely on.
        """
        cap.check_dereference(GRANULE_BYTES, _PERM_STORE_CAP)
        addr = cap.address
        vpn, entry = self._translate(addr, write=True)
        if value.tag:
            if not entry.cap_store:
                raise CapStoreFault(vpn, addr)
            pte = self.pagetable.require(vpn)
            if pte.always_trap_cap_loads:
                # First capability store to an always-trap page: it is no
                # longer clean, so it transitions to generation tracking
                # at this core's current CLG — the stored capability was
                # already checked (§3.2), making the current generation
                # correct (§7.6).
                pte.always_trap_cap_loads = False
                pte.lg = self.clg
            pte.cap_dirty = True
            if pte.swept_this_epoch:
                pte.redirtied = True
        self.memory.store_cap(addr, value)
        cycles = self._charge_access(addr, GRANULE_BYTES, write=True)
        return AccessResult(cycles + self.costs.cap_access_extra)

    def _translate_span(self, addr: int, nbytes: int, *, write: bool) -> None:
        """Translate every page a multi-byte access touches (an access
        creeping from a mapped page into a guard page must fault)."""
        self._translate(addr, write=write)
        last = addr + nbytes - 1
        if last // PAGE_BYTES != addr // PAGE_BYTES:
            for vpn in range(addr // PAGE_BYTES + 1, last // PAGE_BYTES + 1):
                self._translate(vpn * PAGE_BYTES, write=write)

    def load_data(self, cap: Capability, nbytes: int) -> AccessResult:
        """Plain data load of ``nbytes`` at the cursor."""
        cap.check_dereference(nbytes, _PERM_LOAD)
        self._translate_span(cap.address, nbytes, write=False)
        return AccessResult(self._charge_access(cap.address, nbytes, write=False))

    def store_data(self, cap: Capability, nbytes: int) -> AccessResult:
        """Plain data store of ``nbytes`` at the cursor; clears the tags of
        every granule it overlaps."""
        cap.check_dereference(nbytes, _PERM_STORE)
        self._translate_span(cap.address, nbytes, write=True)
        self.memory.store_data(cap.address, nbytes)
        return AccessResult(self._charge_access(cap.address, nbytes, write=True))

    # --- Fused entry points --------------------------------------------------
    #
    # The common case of each operation in its own frame: the capability
    # test without building a cursor, a TLB hit, the barriers, and the
    # touch of a span of at most SPAN_BATCH_MIN_LINES lines (inlined for a
    # capability access that hits, else one Cache.touch_lines call).
    # Every other case -- a failed capability test, a TLB miss, a page
    # crossing, an always-trap page, a tagged store the PTE forbids, an
    # LG fault, a longer span -- replays through the reference method,
    # which raises the exact exception and makes the exact counter
    # updates. Nothing is mutated before a fused path commits to the
    # access, and a committed access mutates state in the reference
    # order.

    def load_data_at(self, cap: Capability, addr: int, nbytes: int) -> int:
        """:meth:`load_data` through ``cap`` at ``addr``; returns cycles."""
        base = cap.base
        last = addr + nbytes - 1
        if (
            cap.tag
            and base <= addr <= last < base + cap.length
            and int(cap.perms) & _PERM_LOAD
            and addr // PAGE_BYTES == last // PAGE_BYTES
            and addr // PAGE_BYTES in self.tlb._entries
        ):
            first = addr // LINE_BYTES
            last = last // LINE_BYTES
            if last - first < SPAN_BATCH_MIN_LINES:
                cycles = (last - first + 1) * self.costs.mem_hit
                misses = self.cache.touch_lines(first, last, False)
                if misses:
                    cycles += misses * self._miss_penalty()
                return cycles
        return self.load_data(cap.with_address(addr), nbytes).cycles

    def store_data_at(self, cap: Capability, addr: int, nbytes: int) -> int:
        """:meth:`store_data` through ``cap`` at ``addr``; returns cycles."""
        base = cap.base
        last = addr + nbytes - 1
        if (
            cap.tag
            and base <= addr <= last < base + cap.length
            and int(cap.perms) & _PERM_STORE
            and addr // PAGE_BYTES == last // PAGE_BYTES
            and addr // PAGE_BYTES in self.tlb._entries
        ):
            first = addr // LINE_BYTES
            last = last // LINE_BYTES
            if last - first < SPAN_BATCH_MIN_LINES:
                self.memory.store_data(addr, nbytes)
                cycles = (last - first + 1) * self.costs.mem_hit
                misses = self.cache.touch_lines(first, last, True)
                if misses:
                    cycles += misses * self._miss_penalty()
                return cycles
        return self.store_data(cap.with_address(addr), nbytes).cycles

    def load_cap_at(self, cap: Capability, addr: int) -> tuple[Capability | None, int]:
        """:meth:`load_cap` through ``cap`` at ``addr``; returns the loaded
        value (None if untagged) and the cycles."""
        base = cap.base
        if (
            cap.tag
            and base <= addr
            and addr + GRANULE_BYTES <= base + cap.length
            and (int(cap.perms) & _PERM_LOAD_CAP) == _PERM_LOAD_CAP
        ):
            entry = self.tlb._entries.get(addr // PAGE_BYTES)
            if entry is not None and not entry.always_trap:
                value = self.memory.load_cap(addr)
                if value is None or entry.lg == self.clg:
                    # An aligned granule never straddles a line.
                    line = addr // LINE_BYTES
                    costs = self.costs
                    cache = self.cache
                    lines = cache._lines
                    if line in lines:
                        lines.move_to_end(line)
                        cache.hits += 1
                        return value, costs.mem_hit + costs.cap_access_extra
                    cache.touch_lines(line, line, False)
                    return value, costs.mem_hit + costs.cap_access_extra + self._miss_penalty()
        result = self.load_cap(cap.with_address(addr))
        return result.value, result.cycles

    def store_cap_at(self, cap: Capability, addr: int, value: Capability) -> int:
        """:meth:`store_cap` of ``value`` through ``cap`` at ``addr``;
        returns cycles."""
        base = cap.base
        if (
            cap.tag
            and base <= addr
            and addr + GRANULE_BYTES <= base + cap.length
            and (int(cap.perms) & _PERM_STORE_CAP) == _PERM_STORE_CAP
        ):
            vpn = addr // PAGE_BYTES
            entry = self.tlb._entries.get(vpn)
            pte = self.pagetable.get(vpn) if value.tag else None
            if entry is not None and (
                not value.tag
                or (entry.cap_store and pte is not None and not pte.always_trap_cap_loads)
            ):
                if pte is not None:
                    pte.cap_dirty = True
                    if pte.swept_this_epoch:
                        pte.redirtied = True
                self.memory.store_cap(addr, value)
                line = addr // LINE_BYTES
                costs = self.costs
                cache = self.cache
                lines = cache._lines
                if line in lines:
                    lines.move_to_end(line)
                    lines[line] = True
                    cache.hits += 1
                    return costs.mem_hit + costs.cap_access_extra
                cache.touch_lines(line, line, True)
                return costs.mem_hit + costs.cap_access_extra + self._miss_penalty()
        return self.store_cap(cap.with_address(addr), value).cycles

    # --- Kernel-side helpers -------------------------------------------------

    def resolve_spurious_lg_fault(self, vpn: int) -> int:
        """The fault handler found the PTE already current: refill the TLB
        and retry (§4.3). Returns the cycles charged."""
        self.lg_faults_spurious += 1
        pte = self.pagetable.require(vpn)
        self.tlb.fill(vpn, pte)
        return self.costs.tlb_refill

    def flip_clg(self) -> int:
        """Advance this core's capability load generation (§4.1). Returns
        the cycles charged. No PTE is touched and no shootdown is issued —
        that is the architectural feature Reloaded is built on."""
        self.clg ^= 1
        if TRACER.enabled:
            TRACER.emit("core.clg_flip", core=self.name, clg=self.clg)
        return self.costs.clg_flip


class ReferenceAccess:
    """The reference methods of a :class:`Core` behind the fused entry
    points' signatures: the oracle the fused path is tested against,
    selected by ``REPRO_SCALAR=1``."""

    __slots__ = ("core",)

    def __init__(self, core: Core) -> None:
        self.core = core

    def load_data_at(self, cap: Capability, addr: int, nbytes: int) -> int:
        return self.core.load_data(cap.with_address(addr), nbytes).cycles

    def store_data_at(self, cap: Capability, addr: int, nbytes: int) -> int:
        return self.core.store_data(cap.with_address(addr), nbytes).cycles

    def load_cap_at(self, cap: Capability, addr: int) -> tuple[Capability | None, int]:
        result = self.core.load_cap(cap.with_address(addr))
        return result.value, result.cycles

    def store_cap_at(self, cap: Capability, addr: int, value: Capability) -> int:
        return self.core.store_cap(cap.with_address(addr), value).cycles
