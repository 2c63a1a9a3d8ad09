"""The PCC-driven promotion engine (§3.3, Fig. 4).

Each promotion interval the kernel:

A. reads the ranked candidate records the hardware dumped,
B. merges them under the configured policy (highest-frequency or
   round-robin, plus process bias) and selects up to
   ``regions_to_promote`` candidates, and
C. performs the promotions — allocating contiguous frames (compacting
   if needed), collapsing page-table entries, and broadcasting TLB
   shootdowns that also invalidate the promoted regions from the PCCs.

2MB and 1GB candidates take the same path (§3.2.3 makes a 1GB page a
collective promotion of its 2MB region): 2MB candidates first, then 1GB
candidates that pass the dominance rule, the only 1GB-specific step.

Demotion (§3.3.3) is driven by the same data: a candidate whose walks
came from an *already promoted* leaf is poorly served by 2MB; under
memory pressure the engine may demote the coldest such page to free a
frame for a hotter unpromoted candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.dump import CandidateRecord
from repro.os import policies
from repro.os.physmem import OutOfMemoryError, PhysicalMemory
from repro.vm.address import HUGE_PER_GIGA, PAGES_PER_HUGE, PageSize
from repro.vm.pagetable import PageTable


@dataclass
class PromotionStats:
    """Work performed by the engine, for timing and reports."""

    intervals: int = 0
    candidates_seen: int = 0
    #: 2MB promotions; 1GB ones count in ``giga_promotions``
    promotions: int = 0
    promotion_failures: int = 0
    demotions: int = 0
    giga_promotions: int = 0
    pages_migrated: int = 0
    shootdowns: int = 0
    #: 4KB pages covered by promoted huge frames beyond the pages that
    #: were actually mapped — promotion-time memory bloat (§2.1)
    bloat_pages: int = 0


@dataclass
class PromotionOutcome:
    """What one interval accomplished (consumed by the timing model)."""

    #: 2MB and 1GB promotions, in the order performed
    promoted: list[CandidateRecord] = field(default_factory=list)
    demoted: list[tuple[int, int]] = field(default_factory=list)  # (pid, prefix)
    pages_migrated: int = 0
    #: accessed-bit aging shootdowns (idle probing of promoted pages)
    probes: int = 0

    @property
    def shootdowns(self) -> int:
        """TLB shootdown broadcasts this interval caused."""
        return len(self.promoted) + len(self.demoted) + self.probes


class PromotionEngine:
    """Applies PCC candidate lists to page tables and physical memory."""

    #: frequency ratio a promoted page must fall below (relative to the
    #: best waiting candidate) before demotion frees its frame
    DEMOTION_RATIO = 0.5
    #: candidates below this frequency are not promoted this interval —
    #: the PCC holds "many entries with a frequency of 0" (§3.2.1) and
    #: spending scarce contiguity on them is wasteful
    MIN_FREQUENCY = 1

    def __init__(
        self,
        physmem: PhysicalMemory,
        regions_to_promote: int = 128,
        promotion_policy: int = 1,
        biased_pids: tuple[int, ...] = (),
        demotion_enabled: bool = False,
    ) -> None:
        self.physmem = physmem
        self.regions_to_promote = regions_to_promote
        self.promotion_policy = promotion_policy
        self.biased_pids = tuple(biased_pids)
        self.demotion_enabled = demotion_enabled
        self.stats = PromotionStats()
        # Demotion bookkeeping covers 2MB pages only: 1GB pages are
        # never demotion victims.
        #: frame backing each promoted (pid, prefix), for demotion
        self._huge_frames: dict[tuple[int, int], int] = {}
        #: PCC frequency observed at promotion time (demotion baseline)
        self._promo_frequency: dict[tuple[int, int], int] = {}
        #: promoted regions whose accessed bit was cleared last interval
        self._probing: set[tuple[int, int]] = set()
        #: promoted regions confirmed idle by probing (§3.3.3's
        #: OS-assisted coldness detection, multi-gen-LRU style)
        self._cold: set[tuple[int, int]] = set()

    def order_candidates(
        self, records: list[CandidateRecord]
    ) -> list[CandidateRecord]:
        """Apply the configured merge policy + bias, deduplicated."""
        records = policies.deduplicate(records)
        if self.promotion_policy == 0:
            ordered = policies.round_robin_order(records)
        elif self.promotion_policy == 1:
            ordered = policies.highest_frequency_order(records)
        else:
            raise ValueError(
                f"unknown promotion_policy {self.promotion_policy} (0 or 1)"
            )
        return policies.apply_process_bias(ordered, self.biased_pids)

    def run_interval(
        self,
        records: list[CandidateRecord],
        page_tables: dict[int, PageTable],
        on_shootdown: Callable[[int, int, PageSize], None] | None = None,
        budget_regions: int | None = None,
    ) -> PromotionOutcome:
        """One Fig. 4 interval: select and perform promotions.

        ``records`` holds the dumped candidates of both PCCs; 2MB
        candidates are promoted first, then 1GB ones.
        ``on_shootdown(pid, tag, size)`` lets the engine's owner
        invalidate TLBs and PCC entries for each promoted/demoted
        region. ``budget_regions`` caps the 2MB regions promoted *over
        the engine's lifetime* (the utility-curve footprint limit; a
        1GB page counts as 512); ``None`` means unlimited.
        """
        self.stats.intervals += 1
        self.stats.candidates_seen += len(records)
        outcome = PromotionOutcome()
        if self.demotion_enabled:
            self._age_promoted_pages(page_tables, on_shootdown, outcome)
        huge_records = [r for r in records if r.page_size is PageSize.HUGE]
        # Each page size may promote ``regions_to_promote`` regions per
        # interval. Memory-pressure throttle (§3.3.1: the interval "can
        # be tuned ... based on ... system memory pressure"): when
        # contiguous capacity is scarce, spend at most a quarter of it
        # per interval so later — better-informed — candidate lists
        # still find room.
        interval_quota = self.regions_to_promote
        capacity = (
            self.physmem.free_huge_frames() + self.physmem.compactable_frames()
        )
        if capacity <= 4 * self.regions_to_promote:
            interval_quota = min(interval_quota, max(1, capacity // 4))
        for size in (PageSize.HUGE, PageSize.GIGA):
            cost = size.base_pages // PAGES_PER_HUGE
            quota = interval_quota
            for record in self.order_candidates(
                [r for r in records if r.page_size is size]
            ):
                if quota <= 0:
                    break
                if budget_regions is not None and (
                    self.stats.promotions + cost
                    + HUGE_PER_GIGA * self.stats.giga_promotions
                    > budget_regions
                ):
                    break
                table = page_tables.get(record.pid)
                if table is None:
                    continue
                if record.promoted_leaf or table.is_promoted(record.tag, size):
                    continue  # already this size: demotion logic's concern
                if record.frequency < self.MIN_FREQUENCY:
                    continue  # too cold to spend contiguous memory on
                if size is PageSize.GIGA and not self._dominates(
                    record, huge_records
                ):
                    continue  # 2MB pages already serve this span
                covered = table.covered_pages(record.tag, size)
                if not covered:
                    continue  # nothing resident (stale candidate)
                frame = self._acquire_frame(huge_records, page_tables, record,
                                            on_shootdown, outcome)
                if frame is None:
                    self.stats.promotion_failures += 1
                    continue
                self._promote(record, table, frame, covered)
                outcome.promoted.append(record)
                quota -= 1
                if on_shootdown is not None:
                    on_shootdown(record.pid, record.tag, size)
        return outcome

    def _promote(self, record: CandidateRecord, table: PageTable, frame: int,
                 covered: int) -> None:
        """Collapse ``record``'s region onto ``frame`` and account it."""
        size = record.page_size
        key = (record.pid, record.tag)
        remapped = table.promote(record.tag, frame, size)
        self.physmem.release_base_pages(remapped)
        self.stats.bloat_pages += size.base_pages - covered
        self.stats.shootdowns += 1
        if size is PageSize.HUGE:
            self._huge_frames[key] = frame
            self._promo_frequency[key] = record.frequency
            self.stats.promotions += 1
            return
        # the 1GB page absorbed the 2MB pages inside it: free their frames
        for absorbed in [k for k in self._huge_frames
                         if k[0] == record.pid
                         and k[1] // HUGE_PER_GIGA == record.tag]:
            self.physmem.free_huge(self._forget(absorbed))
        self.stats.giga_promotions += 1

    def _acquire_frame(
        self,
        huge_records: list[CandidateRecord],
        page_tables: dict[int, PageTable],
        wanting: CandidateRecord,
        on_shootdown: Callable[[int, int, PageSize], None] | None,
        outcome: PromotionOutcome,
    ) -> int | None:
        """Frames for ``wanting``, possibly via compaction/demotion.

        A demotion frees one 2MB frame, so only a 2MB candidate demotes.
        """
        demote = self.demotion_enabled and wanting.page_size is PageSize.HUGE
        while True:
            try:
                frame, migrated = self.physmem.allocate_huge(
                    allow_compaction=True, size=wanting.page_size
                )
            except OutOfMemoryError:
                victim = self._demotion_victim(huge_records, wanting) if demote else None
                if victim is None:
                    return None
                pid, prefix = victim
                self._demote(pid, prefix, page_tables[pid], on_shootdown, outcome)
                demote = False  # one victim per candidate
                continue
            self.stats.pages_migrated += migrated
            outcome.pages_migrated += migrated
            return frame

    def _age_promoted_pages(
        self,
        page_tables: dict[int, PageTable],
        on_shootdown: Callable[[int, int, PageSize], None] | None,
        outcome: PromotionOutcome,
    ) -> None:
        """OS-assisted coldness detection for promoted pages (§3.3.3).

        The PCC cannot see huge pages that stop being accessed (no
        access, no walk), so — as the paper suggests via multi-gen LRU —
        the OS ages them: each interval it clears the PMD accessed bit
        of every promoted region and shoots down its TLB entry; a
        region whose bit is still clear one interval later was never
        re-touched and becomes a demotion candidate.
        """
        for key in list(self._probing):
            pid, prefix = key
            table = page_tables.get(pid)
            if table is None or not table.is_promoted(prefix):
                self._probing.discard(key)
                self._cold.discard(key)
                continue
            if table.region_accessed(prefix):
                self._cold.discard(key)
            else:
                self._cold.add(key)
        self._probing.clear()
        for key in self._huge_frames:
            pid, prefix = key
            table = page_tables.get(pid)
            if table is None or not table.is_promoted(prefix):
                continue
            table.clear_region_accessed(prefix)
            self._probing.add(key)
            outcome.probes += 1
            if on_shootdown is not None:
                on_shootdown(pid, prefix, PageSize.HUGE)

    def _demotion_victim(
        self, records: list[CandidateRecord], wanting: CandidateRecord
    ) -> tuple[int, int] | None:
        """Coldest promoted page clearly worth sacrificing (§3.3.3).

        Preference order: a page the accessed-bit aging confirmed idle;
        otherwise a page whose promotion-time frequency the waiting
        candidate clearly dominates. Promoted pages reappearing in the
        PCC (still walking) are never victims — they may instead
        deserve 1GB promotion.
        """
        still_hot = {
            (r.pid, r.tag) for r in records if r.promoted_leaf
        }
        for key in self._cold:
            if key in self._huge_frames and key not in still_hot:
                return key
        best: tuple[int, int] | None = None
        best_freq = -1
        for key, freq in self._promo_frequency.items():
            if key in still_hot:
                continue
            if wanting.frequency * self.DEMOTION_RATIO <= freq:
                continue
            if best is None or freq < best_freq:
                best = key
                best_freq = freq
        return best

    def _demote(
        self,
        pid: int,
        prefix: int,
        table: PageTable,
        on_shootdown: Callable[[int, int, PageSize], None] | None,
        outcome: PromotionOutcome,
    ) -> None:
        frame = self._forget((pid, prefix))
        table.demote(prefix)
        self.physmem.free_huge(frame, as_base_pages=PAGES_PER_HUGE)
        outcome.demoted.append((pid, prefix))
        self.stats.demotions += 1
        self.stats.shootdowns += 1
        if on_shootdown is not None:
            on_shootdown(pid, prefix, PageSize.HUGE)

    def _forget(self, key: tuple[int, int]) -> int:
        """Drop a 2MB page's demotion bookkeeping; returns its frame."""
        self._promo_frequency.pop(key, None)
        self._probing.discard(key)
        self._cold.discard(key)
        return self._huge_frames.pop(key)

    #: 1GB dominance ratio standing in for the paper's 512x rule: with
    #: 8-bit saturating counters an actual 512x gap is unrepresentable,
    #: but the signature it encodes — the 1GB entry far hotter than any
    #: single constituent 2MB entry (whose counters stay low because the
    #: wide hot set churns them through the 2MB PCC) — survives at a
    #: modest ratio. A lone hot 2MB child saturates alongside the 1GB
    #: entry (ratio ~1, no promotion); a GB-wide hot set leaves every
    #: child lukewarm (ratio >3, promote).
    giga_dominance_ratio: int = 3

    def _dominates(
        self, record: CandidateRecord, huge_records: list[CandidateRecord]
    ) -> bool:
        """§3.2.3's 1GB rule: the 1GB region's walk frequency dominates
        every constituent 2MB entry's — i.e. the 2MB page size is not
        preventing last-level TLB misses for this span."""
        constituent_max = max(
            (
                r.frequency
                for r in huge_records
                if r.pid == record.pid and r.tag // HUGE_PER_GIGA == record.tag
            ),
            default=0,
        )
        return record.frequency >= self.giga_dominance_ratio * max(
            1, constituent_max
        )
