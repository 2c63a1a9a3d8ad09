"""Unit tests for the Linux THP baselines (greedy + khugepaged)."""

import pytest

from repro.os.physmem import PhysicalMemory
from repro.os.thp import GreedyTHP, Khugepaged
from repro.vm.address import HUGE_PAGE_SIZE, PAGES_PER_HUGE
from repro.vm.pagetable import PageTable

BASE = 0x5555_5540_0000


def make_mem(frames=8):
    return PhysicalMemory(frames * HUGE_PAGE_SIZE)


class TestGreedyFault:
    def test_first_touch_gets_huge_page(self):
        mem = make_mem()
        thp = GreedyTHP(mem)
        table = PageTable()
        used_huge, _ = thp.handle_fault(table, BASE)
        assert used_huge
        assert table.is_promoted(BASE >> 21)
        assert thp.stats.fault_huge == 1

    def test_bloat_accounting(self):
        mem = make_mem()
        thp = GreedyTHP(mem)
        thp.handle_fault(PageTable(), BASE)
        assert thp.stats.bloat_pages == PAGES_PER_HUGE - 1

    def test_ineligible_region_gets_base_page(self):
        mem = make_mem()
        thp = GreedyTHP(mem)
        table = PageTable()
        used_huge, _ = thp.handle_fault(table, BASE, region_eligible=False)
        assert not used_huge
        assert table.mapped_base_page_count() == 1

    def test_disabled_thp_always_base(self):
        thp = GreedyTHP(make_mem(), enabled=False)
        table = PageTable()
        used_huge, _ = thp.handle_fault(table, BASE)
        assert not used_huge

    def test_second_fault_in_region_uses_base(self):
        """Once a region holds base pages, greedy cannot map it huge."""
        mem = make_mem()
        thp = GreedyTHP(mem)
        table = PageTable()
        thp.handle_fault(table, BASE, region_eligible=False)
        used_huge, _ = thp.handle_fault(table, BASE + 4096)
        assert not used_huge

    def test_fragmented_memory_falls_back_to_base(self):
        mem = make_mem(4)
        mem.fragment(1.0)
        thp = GreedyTHP(mem, allow_compaction=False)
        table = PageTable()
        used_huge, _ = thp.handle_fault(table, BASE)
        assert not used_huge
        assert thp.stats.fault_huge_failed == 1

    def test_scattered_fragmentation_defeats_fault_path(self):
        """Movable-only fragmentation still blocks no-compaction faults."""
        mem = make_mem(4)
        mem.fragment(0.25)  # 1 pinned + 3 scattered movable
        thp = GreedyTHP(mem, allow_compaction=False)
        used_huge, _ = thp.handle_fault(PageTable(), BASE)
        assert not used_huge


class TestKhugepaged:
    def _table_with_regions(self, count):
        table = PageTable()
        for region in range(count):
            table.map_base(BASE + region * HUGE_PAGE_SIZE, frame=region)
        return table

    def test_promotes_in_scan_order(self):
        mem = make_mem(8)
        daemon = Khugepaged(mem, scan_pages_per_interval=2 * PAGES_PER_HUGE)
        table = self._table_with_regions(4)
        promoted = daemon.scan_interval(table)
        assert promoted == [BASE >> 21, (BASE >> 21) + 1]

    def test_scan_budget_limits_rate(self):
        mem = make_mem(8)
        daemon = Khugepaged(mem, scan_pages_per_interval=PAGES_PER_HUGE)
        table = self._table_with_regions(4)
        assert len(daemon.scan_interval(table)) == 1

    def test_cursor_resumes_across_intervals(self):
        mem = make_mem(8)
        daemon = Khugepaged(mem, scan_pages_per_interval=PAGES_PER_HUGE)
        table = self._table_with_regions(3)
        first = daemon.scan_interval(table)
        second = daemon.scan_interval(table)
        assert first != second
        assert len(set(first + second)) == 2

    def test_empty_table_no_promotions(self):
        daemon = Khugepaged(make_mem())
        assert daemon.scan_interval(PageTable()) == []

    def test_stops_on_memory_exhaustion(self):
        mem = make_mem(2)
        mem.fragment(1.0)
        daemon = Khugepaged(mem)  # every frame pinned: nothing compacts
        table = self._table_with_regions(2)
        assert daemon.scan_interval(table) == []

    def test_skips_already_promoted(self):
        mem = make_mem(8)
        daemon = Khugepaged(mem, scan_pages_per_interval=8 * PAGES_PER_HUGE)
        table = self._table_with_regions(2)
        daemon.scan_interval(table)
        assert daemon.scan_interval(table) == []

    def test_releases_collapsed_base_pages(self):
        mem = make_mem(8)
        table = PageTable()
        mem.allocate_base()
        table.map_base(BASE, frame=0)
        daemon = Khugepaged(mem)
        daemon.scan_interval(table)
        # the huge frame is used, but the old base page was released
        assert mem.free_huge_frames() == 7
