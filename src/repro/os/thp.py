"""Linux transparent huge page baselines (§2.1).

Two mechanisms are modelled:

* **Greedy synchronous promotion**: on the first fault into a 2MB-
  eligible region, Linux tries to back the whole region with a huge
  page immediately, zeroing 512x the data (charged in timing). Under
  fragmentation the allocation falls back to a 4KB page, and —
  crucially for Fig. 1 — the huge pages that *are* available get
  consumed in fault order, not in TLB-benefit order.
* **khugepaged**: the background daemon that scans a bounded number of
  base pages per interval (4096, the figure the paper quotes when
  comparing against HawkEye) and collapses fully-mapped regions it
  passes over, round-robin across the address space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.os.physmem import OutOfMemoryError, PhysicalMemory
from repro.vm.address import PAGES_PER_HUGE, huge_prefix
from repro.vm.pagetable import PageTable


@dataclass
class THPStats:
    """Behaviour counters for the Linux THP model."""

    fault_huge: int = 0
    fault_base: int = 0
    fault_huge_failed: int = 0
    khugepaged_promotions: int = 0
    khugepaged_pages_scanned: int = 0
    bloat_pages: int = 0


class GreedyTHP:
    """Fault-time huge page allocation, like THP ``enabled=always``."""

    def __init__(
        self,
        physmem: PhysicalMemory,
        enabled: bool = True,
        allow_compaction: bool = True,
    ) -> None:
        self.physmem = physmem
        self.enabled = enabled
        self.allow_compaction = allow_compaction
        self.stats = THPStats()

    def handle_fault(
        self, page_table: PageTable, vaddr: int, region_eligible: bool = True
    ) -> tuple[bool, int]:
        """Back the faulting address; returns ``(used_huge, migrated)``.

        ``region_eligible`` reflects VMA alignment/size eligibility (a
        region smaller than 2MB cannot take a huge page).
        """
        if self.enabled and region_eligible:
            prefix = huge_prefix(vaddr)
            if not page_table.region_base_pages(prefix):
                try:
                    frame, migrated = self.physmem.allocate_huge(
                        allow_compaction=self.allow_compaction
                    )
                except OutOfMemoryError:
                    self.stats.fault_huge_failed += 1
                else:
                    page_table.map_huge(vaddr, frame)
                    self.stats.fault_huge += 1
                    # Every base page beyond the one faulted on is
                    # speculative: memory bloat until proven accessed.
                    self.stats.bloat_pages += PAGES_PER_HUGE - 1
                    return True, migrated
        self.physmem.allocate_base()
        page_table.map_base(vaddr, self.physmem.stats.base_allocations)
        self.stats.fault_base += 1
        return False, 0


class Khugepaged:
    """Background collapse daemon with a bounded scan rate."""

    def __init__(
        self,
        physmem: PhysicalMemory,
        scan_pages_per_interval: int = 4096,
    ) -> None:
        self.physmem = physmem
        self.scan_budget = scan_pages_per_interval
        self.stats = THPStats()
        self._cursor: dict[int, int] = {}

    def scan_interval(self, page_table: PageTable) -> list[int]:
        """One wakeup: scan up to the budget, collapse what qualifies.

        Returns the 2MB region prefixes promoted this interval. The
        scan resumes where the previous interval stopped (Linux's
        ``khugepaged_scan`` cursor) and wraps around.
        """
        regions = page_table.touched_huge_regions()
        if not regions:
            return []
        start = self._cursor.get(page_table.pid, 0) % len(regions)
        scanned_pages = 0
        promoted: list[int] = []
        index = start
        steps = 0
        while scanned_pages < self.scan_budget and steps < len(regions):
            prefix = regions[index % len(regions)]
            index += 1
            steps += 1
            if page_table.is_promoted(prefix):
                continue
            mapped = page_table.region_base_pages(prefix)
            scanned_pages += PAGES_PER_HUGE
            self.stats.khugepaged_pages_scanned += PAGES_PER_HUGE
            if not mapped:
                continue
            try:
                frame, _ = self.physmem.allocate_huge(allow_compaction=True)
            except OutOfMemoryError:
                break
            remapped = page_table.promote(prefix, frame)
            self.physmem.release_base_pages(remapped)
            promoted.append(prefix)
            self.stats.khugepaged_promotions += 1
        self._cursor[page_table.pid] = index % len(regions)
        return promoted
