"""Two-level data-TLB hierarchy.

Mirrors Table 2: split L1 structures per page size (64-entry 4KB,
32-entry 2MB, 4-entry 1GB) in front of a unified L2 serving 4KB and 2MB
entries. Lookup probes every structure that could hold the address's
translation; because the mapping size is unknown until the walk
completes, a probe consults each page-size tag in parallel, exactly as
size-partitioned hardware TLBs do.

The lookup path is the simulator's single hottest function, so tags
are computed with plain integer shifts and the three possible outcomes
are preallocated singletons.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.config import TLBHierarchyConfig
from repro.tlb.tlb import TLB
from repro.vm.address import (
    BASE_PAGE_SHIFT,
    GIGA_PAGE_SHIFT,
    HUGE_PAGE_SHIFT,
    PageSize,
)

#: vpn -> tag shifts for huge and giga structures
_HUGE_SHIFT = HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT  # 9
_GIGA_SHIFT = GIGA_PAGE_SHIFT - BASE_PAGE_SHIFT  # 18


class HitLevel(Enum):
    """Where a translation was found."""

    L1 = auto()
    L2 = auto()
    MISS = auto()


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy lookup."""

    level: HitLevel
    page_size: PageSize | None

    @property
    def walk_required(self) -> bool:
        """Whether the access missed the whole hierarchy."""
        return self.level is HitLevel.MISS


#: Singleton results: one per (level, size) outcome on the hot path.
_L1_BASE = AccessResult(HitLevel.L1, PageSize.BASE)
_L1_HUGE = AccessResult(HitLevel.L1, PageSize.HUGE)
_L1_GIGA = AccessResult(HitLevel.L1, PageSize.GIGA)
_L2_BASE = AccessResult(HitLevel.L2, PageSize.BASE)
_L2_HUGE = AccessResult(HitLevel.L2, PageSize.HUGE)
_MISS = AccessResult(HitLevel.MISS, None)


class TLBHierarchy:
    """Per-core L1 (split) + L2 (unified) data-TLB stack."""

    def __init__(self, config: TLBHierarchyConfig) -> None:
        self.config = config
        self.l1_base = TLB(config.l1_base, "L1-4K")
        self.l1_huge = TLB(config.l1_huge, "L1-2M")
        self.l1_giga = TLB(config.l1_giga, "L1-1G")
        self.l2 = TLB(config.l2, "L2")
        self._l1_by_size = {
            PageSize.BASE: self.l1_base,
            PageSize.HUGE: self.l1_huge,
            PageSize.GIGA: self.l1_giga,
        }
        self._l2_serves_huge = PageSize.HUGE in config.l2.page_sizes
        # State hoisted for the hot lookup() path, which inlines the
        # per-structure hit probes: set lists, set counts, stats
        # bags, and the two refill bound methods. Each saved attribute
        # chain or call frame is paid ~10^6 times per quantum.
        self._b_sets, self._b_n = self.l1_base.sets, self.l1_base.nsets
        self._h_sets, self._h_n = self.l1_huge.sets, self.l1_huge.nsets
        self._g_sets, self._g_n = self.l1_giga.sets, self.l1_giga.nsets
        self._l2_sets, self._l2_n = self.l2.sets, self.l2.nsets
        self._b_stats = self.l1_base.stats
        self._h_stats = self.l1_huge.stats
        self._g_stats = self.l1_giga.stats
        self._l2_stats = self.l2.stats
        self._l1_base_fill = self.l1_base.fill
        self._l1_huge_fill = self.l1_huge.fill
        replacements = {
            config.l1_base.replacement,
            config.l1_huge.replacement,
            config.l1_giga.replacement,
            config.l2.replacement,
        }
        if len(replacements) > 1:
            raise ValueError(
                "mixed TLB replacement policies in one hierarchy: "
                f"{sorted(replacements)}"
            )
        self._plru = config.l1_base.replacement == "plru"
        if self._plru:
            # The inlined lookup() below is LRU-specific (dict
            # delete+reinsert is the recency update); under PLRU the
            # hierarchy rebinds lookup to a variant inlining the masked
            # tree touch instead, over hoisted per-structure PLRU state.
            # LRU runs pay nothing for the knob.
            (self._b_way_of, self._b_bits,
             self._b_keep, self._b_setm) = self.l1_base.plru_views()
            (self._h_way_of, self._h_bits,
             self._h_keep, self._h_setm) = self.l1_huge.plru_views()
            (self._g_way_of, self._g_bits,
             self._g_keep, self._g_setm) = self.l1_giga.plru_views()
            (self._l2_way_of, self._l2_bits,
             self._l2_keep, self._l2_setm) = self.l2.plru_views()
            self.lookup = self._lookup_plru
        # Per page size: (vpn shift, L1 structure, L2 or None, stored
        # entry value as a plain int — filling with the IntEnum itself
        # would re-run int() on the enum for every walk).
        self._fill_plan = {
            size: (
                size.value - BASE_PAGE_SHIFT,
                self._l1_by_size[size],
                self.l2 if size in config.l2.page_sizes else None,
                int(size.value),
            )
            for size in PageSize
        }
        self.accesses = 0

    @property
    def l2_serves_huge(self) -> bool:
        """Whether the unified L2 caches 2MB entries (Table 2: yes)."""
        return self._l2_serves_huge

    def lookup(self, vpn: int) -> AccessResult:
        """Probe the hierarchy for the page holding 4KB VPN ``vpn``.

        L1 structures are probed in parallel in hardware; here we test
        them in turn and count statistics only on the structure that
        answers (or on the 4KB structure for a clean miss, since that is
        the probe every access performs).
        """
        # Each probe below is a TLB.lookup hit inlined, its miss count
        # left to the hierarchy: dict get, LRU refresh via
        # delete+reinsert, hit count. The call-free chain
        # matters more here than anywhere else in the simulator.
        self.accesses += 1
        entries = self._b_sets[vpn % self._b_n]
        size = entries.get(vpn)
        if size is not None:
            del entries[vpn]
            entries[vpn] = size
            self._b_stats.hits += 1
            return _L1_BASE
        huge_tag = vpn >> _HUGE_SHIFT
        entries = self._h_sets[huge_tag % self._h_n]
        size = entries.get(huge_tag)
        if size is not None:
            del entries[huge_tag]
            entries[huge_tag] = size
            self._h_stats.hits += 1
            return _L1_HUGE
        giga_tag = vpn >> _GIGA_SHIFT
        entries = self._g_sets[giga_tag % self._g_n]
        size = entries.get(giga_tag)
        if size is not None:
            del entries[giga_tag]
            entries[giga_tag] = size
            self._g_stats.hits += 1
            return _L1_GIGA
        self._b_stats.misses += 1

        l2_sets = self._l2_sets
        l2_n = self._l2_n
        entries = l2_sets[vpn % l2_n]
        size = entries.get(vpn)
        if size is not None:
            del entries[vpn]
            entries[vpn] = size
            self._l2_stats.hits += 1
            # On an L2 hit the entry is refilled into its L1.
            self._l1_base_fill(vpn, BASE_PAGE_SHIFT)
            return _L2_BASE
        if self._l2_serves_huge:
            entries = l2_sets[huge_tag % l2_n]
            size = entries.get(huge_tag)
            if size is not None:
                del entries[huge_tag]
                entries[huge_tag] = size
                self._l2_stats.hits += 1
                self._l1_huge_fill(huge_tag, HUGE_PAGE_SHIFT)
                return _L2_HUGE
        self._l2_stats.misses += 1
        return _MISS

    def _lookup_plru(self, vpn: int) -> AccessResult:
        """PLRU-mode lookup: same probe order and attribution as the
        inlined LRU path. Each probe is a ``TLB._lookup_plru`` hit
        inlined: tag->way dict get, then the masked tree touch and hit
        count."""
        self.accesses += 1
        si = vpn % self._b_n
        way = self._b_way_of[si].get(vpn)
        if way is not None:
            bits = self._b_bits
            bits[si] = (bits[si] & self._b_keep[way]) | self._b_setm[way]
            self._b_stats.hits += 1
            return _L1_BASE
        huge_tag = vpn >> _HUGE_SHIFT
        si = huge_tag % self._h_n
        way = self._h_way_of[si].get(huge_tag)
        if way is not None:
            bits = self._h_bits
            bits[si] = (bits[si] & self._h_keep[way]) | self._h_setm[way]
            self._h_stats.hits += 1
            return _L1_HUGE
        giga_tag = vpn >> _GIGA_SHIFT
        si = giga_tag % self._g_n
        way = self._g_way_of[si].get(giga_tag)
        if way is not None:
            bits = self._g_bits
            bits[si] = (bits[si] & self._g_keep[way]) | self._g_setm[way]
            self._g_stats.hits += 1
            return _L1_GIGA
        self._b_stats.misses += 1

        l2_way_of = self._l2_way_of
        l2_n = self._l2_n
        si = vpn % l2_n
        way = l2_way_of[si].get(vpn)
        if way is not None:
            bits = self._l2_bits
            bits[si] = (bits[si] & self._l2_keep[way]) | self._l2_setm[way]
            self._l2_stats.hits += 1
            self._l1_base_fill(vpn, BASE_PAGE_SHIFT)
            return _L2_BASE
        if self._l2_serves_huge:
            si = huge_tag % l2_n
            way = l2_way_of[si].get(huge_tag)
            if way is not None:
                bits = self._l2_bits
                bits[si] = (
                    (bits[si] & self._l2_keep[way]) | self._l2_setm[way]
                )
                self._l2_stats.hits += 1
                self._l1_huge_fill(huge_tag, HUGE_PAGE_SHIFT)
                return _L2_HUGE
        self._l2_stats.misses += 1
        return _MISS

    def fill(self, vpn: int, page_size: PageSize) -> tuple[int | None, int | None]:
        """Install the walked translation into L1 (and L2 if served).

        Returns ``(l1_victim, l2_victim)`` region tags (``None`` where
        nothing was evicted) so differential harnesses can cross-check
        victim selection; the engine ignores the return value.
        """
        shift, l1, l2, entry = self._fill_plan[page_size]
        tag = vpn >> shift
        l1_victim = l1.fill(tag, entry)
        l2_victim = l2.fill(tag, entry) if l2 is not None else None
        return l1_victim, l2_victim

    def shootdown_region(self, huge_region: int) -> None:
        """Invalidate every entry overlapping 2MB region ``huge_region``.

        Called on promotion/demotion of that region. 4KB entries inside
        the region, the region's own 2MB entry, and (conservatively) the
        covering 1GB entry are dropped.
        """
        span = PageSize.HUGE.base_pages
        first_vpn = huge_region * span
        for vpn in range(first_vpn, first_vpn + span):
            self.l1_base.invalidate(vpn)
            self.l2.invalidate(vpn)
        self.l1_huge.invalidate(huge_region)
        if self._l2_serves_huge:
            self.l2.invalidate(huge_region)
        self.l1_giga.invalidate(huge_region >> (_GIGA_SHIFT - _HUGE_SHIFT))

    def flush(self) -> None:
        """Full shootdown of all levels."""
        for tlb in (self.l1_base, self.l1_huge, self.l1_giga, self.l2):
            tlb.flush()

    def miss_rate(self) -> float:
        """Fraction of accesses that missed the whole hierarchy.

        This is the paper's "TLB miss %" (accesses causing page table
        walks divided by all accesses).
        """
        if self.accesses == 0:
            return 0.0
        return self.l2.stats.misses / self.accesses
