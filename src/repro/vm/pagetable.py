"""Four-level radix page table with per-level accessed bits.

The table models what the PCC's surrounding hardware observes: which
granularity each virtual page is mapped at, and the Intel-style accessed
bits that the walker checks at the PUD (1GB) and PMD (2MB) levels to
filter cold TLB misses out of the PCC (§3.2, Fig. 3 steps 3 and 6).

Mappings are stored sparsely — per-VPN dictionaries rather than a radix
tree — because only translation results and level accessed bits affect
simulation behaviour. Promotion collapses the 512 PTEs of a 2MB region
into one PMD leaf; demotion splits it back, exactly mirroring Linux's
THP collapse/split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.vm.address import (
    BASE_PAGE_SHIFT,
    GIGA_PAGE_SHIFT,
    HUGE_PAGE_SHIFT,
    PAGES_PER_HUGE,
    PageSize,
    giga_prefix,
    huge_prefix,
    vpn,
)


class Mapping(NamedTuple):
    """Result of one translation: the leaf entry backing an address.

    A ``NamedTuple`` rather than a dataclass: one is created per page
    walk on the simulator's hottest path, and tuple construction is
    several times cheaper than frozen-dataclass ``__init__``.
    """

    page_size: PageSize
    #: region number at ``page_size`` granularity (the TLB tag)
    tag: int
    #: physical frame token assigned by the OS (opaque to the TLB)
    frame: int


@dataclass
class PageTableStats:
    """Counters exposed for tests and reports."""

    faults: int = 0
    promotions: int = 0
    demotions: int = 0
    giga_promotions: int = 0
    #: 2MB leaves that 1GB promotions absorbed
    absorbed: int = 0


class PageTableError(Exception):
    """Raised on invalid page-table manipulation (e.g. double promote)."""


@dataclass
class _HugeRegionState:
    """Book-keeping for one 2MB-aligned virtual region."""

    promoted: bool = False
    frame: int = -1
    #: PMD-level accessed bit (set when any constituent page is touched)
    accessed: bool = False


class PageTable:
    """Sparse 4-level page table for one process."""

    def __init__(self, pid: int = 0) -> None:
        self.pid = pid
        self.stats = PageTableStats()
        #: 4KB mappings: vpn -> frame token
        self._ptes: dict[int, int] = {}
        #: PTE-level accessed bits
        self._pte_accessed: set[int] = set()
        #: per-2MB-region state (promotion + PMD accessed bit)
        self._huge: dict[int, _HugeRegionState] = {}
        #: promoted 1GB regions: giga prefix -> frame token
        self._giga: dict[int, int] = {}
        #: PUD-level accessed bits
        self._pud_accessed: set[int] = set()
        #: live 4KB PTEs per 2MB region — lets fault/promotion paths
        #: answer "does this region hold base pages?" without scanning
        #: all 512 candidate VPNs
        self._base_count: dict[int, int] = {}
        #: distinct accessed PTEs per 2MB region since the last
        #: :meth:`clear_accessed_bits` (HawkEye's coverage metric)
        self._accessed_count: dict[int, int] = {}

    # ------------------------------------------------------------------
    # population

    def is_mapped(self, vaddr: int) -> bool:
        """Whether ``vaddr`` has any backing mapping."""
        if giga_prefix(vaddr) in self._giga:
            return True
        region = self._huge.get(huge_prefix(vaddr))
        if region is not None and region.promoted:
            return True
        return vpn(vaddr) in self._ptes

    def map_base(self, vaddr: int, frame: int) -> None:
        """Install a 4KB PTE backing the page containing ``vaddr``."""
        page = vpn(vaddr)
        prefix = huge_prefix(vaddr)
        region = self._huge.get(prefix)
        if region is not None and region.promoted:
            raise PageTableError(
                f"page {page:#x} already covered by promoted 2MB region"
            )
        if page in self._ptes:
            raise PageTableError(f"page {page:#x} already mapped")
        self._ptes[page] = frame
        self._base_count[prefix] = self._base_count.get(prefix, 0) + 1
        self.stats.faults += 1

    def map_base_bulk(self, pages, frames) -> None:
        """Install many 4KB PTEs in one pass (array-batched faults).

        ``pages`` and ``frames`` are aligned integer arrays of distinct,
        currently-unmapped VPNs in fault order. Equivalent to calling
        :meth:`map_base` once per page — same PTEs, same per-region live
        counts, same fault counter — without 512 dict probes' worth of
        per-call overhead. Raises the same :class:`PageTableError` as
        the scalar path for a page inside a promoted region or an
        already-mapped page (callers pre-filter with :meth:`is_mapped`,
        so these are defensive tripwires, not expected paths).
        """
        n = len(pages)
        if n == 0:
            return
        prefixes, counts = np.unique(
            np.asarray(pages) >> (HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT),
            return_counts=True,
        )
        for prefix in prefixes.tolist():
            region = self._huge.get(prefix)
            if region is not None and region.promoted:
                page = next(
                    p for p in pages.tolist()
                    if p >> (HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT) == prefix
                )
                raise PageTableError(
                    f"page {page:#x} already covered by promoted 2MB region"
                )
        ptes = self._ptes
        for page in pages.tolist():
            if page in ptes:
                raise PageTableError(f"page {page:#x} already mapped")
        before = len(ptes)
        ptes.update(zip(pages.tolist(), frames.tolist()))
        if len(ptes) - before != n:
            raise PageTableError("bulk map repeated a page within the batch")
        base_count = self._base_count
        for prefix, count in zip(prefixes.tolist(), counts.tolist()):
            base_count[prefix] = base_count.get(prefix, 0) + count
        self.stats.faults += n

    def map_huge(self, vaddr: int, frame: int) -> None:
        """Install a 2MB leaf for the region containing ``vaddr``.

        Used by greedy THP fault-time allocation: the region must not
        hold any 4KB mappings yet (those go through :meth:`promote`).
        """
        prefix = huge_prefix(vaddr)
        state = self._huge.setdefault(prefix, _HugeRegionState())
        if state.promoted:
            raise PageTableError(f"2MB region {prefix:#x} already promoted")
        if self._base_count.get(prefix):
            raise PageTableError(
                f"2MB region {prefix:#x} holds base pages; use promote()"
            )
        state.promoted = True
        state.frame = frame
        self.stats.faults += 1

    # ------------------------------------------------------------------
    # translation

    def translate(self, vaddr: int) -> Mapping | None:
        """Leaf mapping backing ``vaddr``, or ``None`` if unmapped."""
        giga = giga_prefix(vaddr)
        giga_frame = self._giga.get(giga)
        if giga_frame is not None:
            return Mapping(PageSize.GIGA, giga, giga_frame)
        prefix = huge_prefix(vaddr)
        region = self._huge.get(prefix)
        if region is not None and region.promoted:
            return Mapping(PageSize.HUGE, prefix, region.frame)
        frame = self._ptes.get(vpn(vaddr))
        if frame is None:
            return None
        return Mapping(PageSize.BASE, vpn(vaddr), frame)

    def walk(self, vaddr: int) -> tuple[Mapping, bool, bool]:
        """Hardware walk: translate and update accessed bits.

        Returns ``(mapping, pud_was_accessed, pmd_was_accessed)`` where
        the booleans report whether the respective level's accessed bit
        was *already set before this walk* — the signal the walker uses
        to admit regions into the 1GB / 2MB PCCs (cold-miss filter).

        Translation is inlined rather than delegated to
        :meth:`translate` so each walk computes the level prefixes only
        once (as plain shifts, not the address-helper calls) — this
        method sits on the simulator's hot TLB-miss path.
        """
        giga = vaddr >> GIGA_PAGE_SHIFT
        giga_frame = self._giga.get(giga)
        if giga_frame is not None:
            pud_was_accessed = giga in self._pud_accessed
            self._pud_accessed.add(giga)
            # the PUD entry is the leaf; there is no PMD level
            return Mapping(PageSize.GIGA, giga, giga_frame), pud_was_accessed, False
        prefix = vaddr >> HUGE_PAGE_SHIFT
        state = self._huge.get(prefix)
        page = -1
        if state is not None and state.promoted:
            mapping = Mapping(PageSize.HUGE, prefix, state.frame)
        else:
            page = vaddr >> BASE_PAGE_SHIFT
            frame = self._ptes.get(page)
            if frame is None:
                raise PageTableError(f"walk of unmapped address {vaddr:#x}")
            mapping = Mapping(PageSize.BASE, page, frame)
        pud_was_accessed = giga in self._pud_accessed
        self._pud_accessed.add(giga)
        if state is None:
            state = self._huge[prefix] = _HugeRegionState()
        pmd_was_accessed = state.accessed
        state.accessed = True
        if page >= 0 and page not in self._pte_accessed:
            self._pte_accessed.add(page)
            self._accessed_count[prefix] = self._accessed_count.get(prefix, 0) + 1
        return mapping, pud_was_accessed, pmd_was_accessed

    # ------------------------------------------------------------------
    # promotion / demotion

    def mapped_pages_in_region(self, prefix: int) -> list[int]:
        """VPNs of 4KB pages currently mapped inside 2MB region ``prefix``."""
        if not self._base_count.get(prefix):
            return []
        return [page for page in self._region_pages(prefix) if page in self._ptes]

    def region_base_pages(self, prefix: int) -> int:
        """Count of 4KB pages mapped inside 2MB region ``prefix`` (O(1)).

        Prefer this over ``mapped_pages_in_region`` when only the count
        (or emptiness) matters: it avoids scanning 512 candidate VPNs on
        every fault and khugepaged pass.
        """
        return self._base_count.get(prefix, 0)

    def is_promoted(self, tag: int, size: PageSize = PageSize.HUGE) -> bool:
        """Whether region ``tag`` at ``size`` is backed by one leaf."""
        if size is PageSize.HUGE:
            state = self._huge.get(tag)
            return state is not None and state.promoted
        return tag in self._giga

    def covered_pages(self, tag: int, size: PageSize = PageSize.HUGE) -> int:
        """4KB pages region ``tag`` at ``size`` maps: its base PTEs plus
        512 per 2MB leaf inside it (what a promotion would absorb)."""
        covered = 0
        for prefix in self._huge_prefixes(tag, size):
            state = self._huge.get(prefix)
            if state is not None and state.promoted:
                covered += PAGES_PER_HUGE
            else:
                covered += self._base_count.get(prefix, 0)
        return covered

    def promote(self, tag: int, frame: int,
                size: PageSize = PageSize.HUGE) -> int:
        """Collapse region ``tag`` at ``size`` into one leaf on ``frame``.

        Every constituent is absorbed: the 4KB PTEs and, for a 1GB
        page, the 2MB leaves as well (§3.2.3: "the entire region is
        collectively promoted"). Returns the number of 4KB PTEs that
        were remapped (the paper zero-fills the rest of the region,
        which we charge in timing).
        """
        if self.is_promoted(tag, size):
            raise PageTableError(f"{size.name} region {tag:#x} already promoted")
        if not self.covered_pages(tag, size):
            raise PageTableError(
                f"{size.name} region {tag:#x} has no mapped pages to promote"
            )
        remapped = 0
        for prefix in self._huge_prefixes(tag, size):
            state = self._huge.get(prefix)
            if state is not None:  # a 1GB page absorbs the 2MB leaves
                self.stats.absorbed += state.promoted
                state.promoted = False
                state.frame = -1
            pages = self.mapped_pages_in_region(prefix)
            for page in pages:
                del self._ptes[page]
            remapped += len(pages)
            self._base_count[prefix] = 0
        if size is PageSize.HUGE:
            state = self._huge.setdefault(tag, _HugeRegionState())
            state.promoted = True
            state.frame = frame
            self.stats.promotions += 1
        else:
            self._giga[tag] = frame
            self.stats.giga_promotions += 1
        return remapped

    def demote(self, prefix: int, frames: list[int] | None = None) -> None:
        """Split promoted region ``prefix`` back into 512 base PTEs."""
        state = self._huge.get(prefix)
        if state is None or not state.promoted:
            raise PageTableError(f"2MB region {prefix:#x} is not promoted")
        pages = list(self._region_pages(prefix))
        if frames is None:
            frames = [state.frame * PAGES_PER_HUGE + i for i in range(len(pages))]
        if len(frames) != len(pages):
            raise PageTableError(
                f"demotion of region {prefix:#x} needs {len(pages)} frames, "
                f"got {len(frames)}"
            )
        for page, frame in zip(pages, frames):
            self._ptes[page] = frame
        self._base_count[prefix] = PAGES_PER_HUGE
        state.promoted = False
        state.frame = -1
        self.stats.demotions += 1

    # ------------------------------------------------------------------
    # accessed-bit maintenance

    def clear_accessed_bits(self) -> None:
        """Reset all accessed bits (HawkEye-style interval scanning)."""
        self._pte_accessed.clear()
        self._pud_accessed.clear()
        self._accessed_count.clear()
        for state in self._huge.values():
            state.accessed = False

    def clear_region_accessed(self, prefix: int) -> None:
        """Reset one 2MB region's PMD accessed bit (idle probing)."""
        state = self._huge.get(prefix)
        if state is not None:
            state.accessed = False

    def accessed_pages_in_region(self, prefix: int) -> int:
        """Count of PTE accessed bits set inside 2MB region ``prefix``.

        This is HawkEye's access-coverage metric (§2.2). Maintained as
        a running per-region counter on the walk path, so the lookup is
        O(1). Bits go stale exactly like the set they mirror: promotion
        and demotion leave them untouched until the next
        :meth:`clear_accessed_bits` sweep.
        """
        return self._accessed_count.get(prefix, 0)

    def region_accessed(self, prefix: int) -> bool:
        """PMD accessed bit of 2MB region ``prefix``."""
        state = self._huge.get(prefix)
        return state is not None and state.accessed

    # ------------------------------------------------------------------
    # inventory

    def promoted_regions(self, size: PageSize = PageSize.HUGE) -> list[int]:
        """Region numbers currently promoted at ``size`` (sorted)."""
        if size is PageSize.HUGE:
            return sorted(p for p, s in self._huge.items() if s.promoted)
        return sorted(self._giga)

    def mapped_base_page_count(self) -> int:
        """Number of live 4KB PTEs."""
        return len(self._ptes)

    def touched_huge_regions(self) -> list[int]:
        """2MB regions holding any mapping (base or huge), sorted.

        Derived from the per-region live-PTE counts rather than the PTE
        dict itself: khugepaged calls this every scan interval, and the
        region count dict is ~512x smaller than the page dict.
        """
        regions = {p for p, c in self._base_count.items() if c}
        regions.update(p for p, s in self._huge.items() if s.promoted)
        return sorted(regions)

    @staticmethod
    def _huge_prefixes(tag: int, size: PageSize) -> range:
        """2MB region numbers inside region ``tag`` at ``size``."""
        count = 1 << (size.value - HUGE_PAGE_SHIFT)
        return range(tag * count, (tag + 1) * count)

    @staticmethod
    def _region_pages(prefix: int) -> range:
        start = prefix * PAGES_PER_HUGE
        return range(start, start + PAGES_PER_HUGE)
