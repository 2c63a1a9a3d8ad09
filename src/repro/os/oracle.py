"""Profile-guided static huge-page allocation (§5.4.2).

The paper notes that "compiler or programmer analysis can identify
HUBs before workload execution and this knowledge can guide the
allocation of huge pages in lieu of dynamic promotion". This module
provides that alternative: a promotion-free policy that backs a
*preselected* set of 2MB regions with huge pages at first fault.

Two selectors are provided:

* :func:`hub_regions_from_profile` — the offline reuse-distance oracle
  (Fig. 2's characterization) picks the HUB regions; and
* a user-supplied region list (the "programmer annotation" case, e.g.
  ``madvise(MADV_HUGEPAGE)`` on specific allocations).

Comparing this oracle against the dynamic PCC quantifies how much of
the paper's benefit is achievable with static knowledge — and what the
PCC adds when the profile is unavailable or wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.os.physmem import OutOfMemoryError, PhysicalMemory
from repro.trace.events import Trace
from repro.vm.address import huge_prefix
from repro.vm.pagetable import PageTable


def hub_regions_from_profile(trace: Trace, threshold: int = 1024,
                             limit: int | None = None) -> list[int]:
    """Offline oracle: HUB regions of a trace, hottest first."""
    # imported lazily: repro.analysis pulls in the simulation engine,
    # which depends back on this package's kernel
    from repro.analysis.reuse import profile_trace

    regions = profile_trace(trace, threshold=threshold).hub_regions()
    return regions if limit is None else regions[:limit]


@dataclass
class StaticAllocStats:
    """First-fault allocation accounting."""

    huge_faults: int = 0
    base_faults: int = 0
    huge_failures: int = 0


class StaticHugeAllocator:
    """Backs a preselected region set with huge pages at first fault.

    Unlike greedy THP this is *selective*: only annotated regions get
    huge pages, so scarce contiguity is never wasted on cold data —
    but unlike the PCC it cannot adapt when the annotation is stale.
    """

    def __init__(self, physmem: PhysicalMemory, regions: list[int]) -> None:
        self.physmem = physmem
        self.regions = set(regions)
        self.stats = StaticAllocStats()

    def handle_fault(self, page_table: PageTable, vaddr: int) -> bool:
        """Back the faulting page; returns True when huge was used."""
        prefix = huge_prefix(vaddr)
        if (
            prefix in self.regions
            and not page_table.is_promoted(prefix)
            and not page_table.region_base_pages(prefix)
        ):
            try:
                frame, _ = self.physmem.allocate_huge(allow_compaction=True)
            except OutOfMemoryError:
                self.stats.huge_failures += 1
            else:
                page_table.map_huge(vaddr, frame)
                self.stats.huge_faults += 1
                return True
        self.physmem.allocate_base()
        page_table.map_base(vaddr, self.physmem.stats.base_allocations)
        self.stats.base_faults += 1
        return False
