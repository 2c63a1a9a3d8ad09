"""HawkEye baseline (Panwar et al., ASPLOS 2019) as described in §2.2.

HawkEye tracks *access coverage*: the number of distinct base pages
accessed within each 2MB region during a measurement interval, read
from page-table accessed bits and then reset. Regions land in ten
buckets of width 50 (coverage 0-49 in bucket 0, ..., 450-512 in
bucket 9); promotion drains bucket 9 first and works backwards.

The paper stresses two structural limitations that our model preserves:

* the scan is software and rate-limited — the same 4096 pages per
  interval as khugepaged — so HawkEye discovers candidates slowly on
  large footprints; and
* coverage is binary per page (accessed or not), blind to how many TLB
  misses each page causes, so sparse-but-hot HUB regions whose coverage
  sits below threshold never get prioritized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.os.physmem import OutOfMemoryError, PhysicalMemory
from repro.vm.address import PAGES_PER_HUGE
from repro.vm.pagetable import PageTable

#: Coverage buckets of width 50: 0-49 -> 0, ..., 450-512 -> 9.
BUCKET_WIDTH = 50
NUM_BUCKETS = 10


def bucket_of(coverage: int) -> int:
    """Bucket index for an access-coverage count (clamped to bucket 9)."""
    if coverage < 0:
        raise ValueError(f"coverage cannot be negative: {coverage}")
    return min(coverage // BUCKET_WIDTH, NUM_BUCKETS - 1)


@dataclass
class HawkEyeStats:
    """Scan and promotion counters."""

    intervals: int = 0
    pages_scanned: int = 0
    promotions: int = 0
    promotion_failures: int = 0


@dataclass
class HawkEye:
    """Access-coverage-driven promotion engine."""

    physmem: PhysicalMemory
    scan_pages_per_interval: int = 4096
    max_promotions_per_interval: int = 8
    stats: HawkEyeStats = field(default_factory=HawkEyeStats)
    #: latest measured coverage per (pid, region)
    _coverage: dict[tuple[int, int], int] = field(default_factory=dict)
    _cursor: dict[int, int] = field(default_factory=dict)

    def measure_interval(self, page_table: PageTable) -> None:
        """One 1-second measurement: scan accessed bits, then reset them.

        Only ``scan_pages_per_interval`` pages are examined; the cursor
        carries across intervals so the whole footprint is eventually
        covered, just slowly — the bottleneck the PCC removes.
        """
        self.stats.intervals += 1
        regions = [
            prefix
            for prefix in page_table.touched_huge_regions()
            if not page_table.is_promoted(prefix)
        ]
        if not regions:
            return
        start = self._cursor.get(page_table.pid, 0) % len(regions)
        budget = self.scan_pages_per_interval
        index = start
        steps = 0
        while budget > 0 and steps < len(regions):
            prefix = regions[index % len(regions)]
            index += 1
            steps += 1
            coverage = page_table.accessed_pages_in_region(prefix)
            self._coverage[(page_table.pid, prefix)] = coverage
            budget -= PAGES_PER_HUGE
            self.stats.pages_scanned += PAGES_PER_HUGE
        self._cursor[page_table.pid] = index % len(regions)
        page_table.clear_accessed_bits()

    def buckets(self, pid: int) -> list[list[int]]:
        """Regions grouped by coverage bucket for one process."""
        grouped: list[list[int]] = [[] for _ in range(NUM_BUCKETS)]
        for (entry_pid, prefix), coverage in self._coverage.items():
            if entry_pid == pid:
                grouped[bucket_of(coverage)].append(prefix)
        return grouped

    def promotion_candidates(self, pid: int, limit: int) -> list[int]:
        """Up to ``limit`` regions, bucket 9 first, then backwards."""
        candidates: list[int] = []
        for bucket in reversed(self.buckets(pid)):
            for prefix in bucket:
                if len(candidates) >= limit:
                    return candidates
                candidates.append(prefix)
        return candidates

    def promote_interval(self, page_table: PageTable) -> list[int]:
        """Promote the current top candidates for one process."""
        promoted: list[int] = []
        for prefix in self.promotion_candidates(
            page_table.pid, self.max_promotions_per_interval
        ):
            if page_table.is_promoted(prefix):
                self._coverage.pop((page_table.pid, prefix), None)
                continue
            if not page_table.region_base_pages(prefix):
                continue
            try:
                frame, _ = self.physmem.allocate_huge(allow_compaction=True)
            except OutOfMemoryError:
                self.stats.promotion_failures += 1
                break
            remapped = page_table.promote(prefix, frame)
            self.physmem.release_base_pages(remapped)
            self._coverage.pop((page_table.pid, prefix), None)
            promoted.append(prefix)
            self.stats.promotions += 1
        return promoted
