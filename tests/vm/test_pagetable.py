"""Unit tests for the 4-level page table."""

import pytest

from repro.vm.address import GIGA_PAGE_SIZE, HUGE_PAGE_SIZE, PageSize
from repro.vm.pagetable import PageTable, PageTableError

BASE = 0x5555_5540_0000  # 2MB-aligned


@pytest.fixture
def table():
    return PageTable(pid=1)


class TestBaseMapping:
    def test_unmapped_by_default(self, table):
        assert not table.is_mapped(BASE)
        assert table.translate(BASE) is None

    def test_map_and_translate(self, table):
        table.map_base(BASE, frame=7)
        mapping = table.translate(BASE + 100)
        assert mapping.page_size is PageSize.BASE
        assert mapping.frame == 7
        assert mapping.tag == BASE >> 12

    def test_double_map_rejected(self, table):
        table.map_base(BASE, frame=1)
        with pytest.raises(PageTableError, match="already mapped"):
            table.map_base(BASE + 100, frame=2)  # same 4KB page

    def test_adjacent_pages_independent(self, table):
        table.map_base(BASE, frame=1)
        assert not table.is_mapped(BASE + 4096)
        table.map_base(BASE + 4096, frame=2)
        assert table.translate(BASE + 4096).frame == 2

    def test_fault_count(self, table):
        table.map_base(BASE, frame=1)
        table.map_base(BASE + 4096, frame=2)
        assert table.stats.faults == 2


class TestHugeMapping:
    def test_map_huge_covers_region(self, table):
        table.map_huge(BASE, frame=3)
        for offset in (0, 4096, HUGE_PAGE_SIZE - 1):
            mapping = table.translate(BASE + offset)
            assert mapping.page_size is PageSize.HUGE
            assert mapping.frame == 3

    def test_map_huge_rejected_over_base_pages(self, table):
        table.map_base(BASE, frame=1)
        with pytest.raises(PageTableError, match="use promote"):
            table.map_huge(BASE, frame=2)

    def test_map_huge_twice_rejected(self, table):
        table.map_huge(BASE, frame=1)
        with pytest.raises(PageTableError, match="already promoted"):
            table.map_huge(BASE + 8192, frame=2)

    def test_map_base_rejected_under_huge(self, table):
        table.map_huge(BASE, frame=1)
        with pytest.raises(PageTableError, match="promoted 2MB region"):
            table.map_base(BASE + 4096, frame=9)


class TestPromotion:
    def test_promote_collapses_ptes(self, table):
        prefix = BASE >> 21
        for i in range(4):
            table.map_base(BASE + i * 4096, frame=i)
        remapped = table.promote(prefix, frame=42)
        assert remapped == 4
        assert table.is_promoted(prefix)
        assert table.mapped_base_page_count() == 0
        mapping = table.translate(BASE + 3 * 4096)
        assert mapping.page_size is PageSize.HUGE
        assert mapping.frame == 42

    def test_promote_empty_region_rejected(self, table):
        with pytest.raises(PageTableError, match="no mapped pages"):
            table.promote(BASE >> 21, frame=1)

    def test_promote_twice_rejected(self, table):
        table.map_base(BASE, frame=1)
        table.promote(BASE >> 21, frame=2)
        with pytest.raises(PageTableError, match="already promoted"):
            table.promote(BASE >> 21, frame=3)

    def test_promotion_stats(self, table):
        table.map_base(BASE, frame=1)
        table.promote(BASE >> 21, frame=2)
        assert table.stats.promotions == 1

    def test_promoted_regions_sorted(self, table):
        for region in (5, 2, 9):
            vaddr = region * HUGE_PAGE_SIZE
            table.map_base(vaddr, frame=region)
            table.promote(region, frame=region)
        assert table.promoted_regions() == [2, 5, 9]


class TestDemotion:
    def test_demote_restores_base_pages(self, table):
        prefix = BASE >> 21
        table.map_base(BASE, frame=1)
        table.promote(prefix, frame=2)
        table.demote(prefix)
        assert not table.is_promoted(prefix)
        mapping = table.translate(BASE)
        assert mapping.page_size is PageSize.BASE
        # the whole region is split into 512 base pages, as in Linux
        assert table.mapped_base_page_count() == 512

    def test_demote_unpromoted_rejected(self, table):
        with pytest.raises(PageTableError, match="not promoted"):
            table.demote(BASE >> 21)

    def test_demote_with_wrong_frame_count(self, table):
        table.map_base(BASE, frame=1)
        table.promote(BASE >> 21, frame=2)
        with pytest.raises(PageTableError, match="needs 512 frames"):
            table.demote(BASE >> 21, frames=[1, 2, 3])

    def test_demotion_stats(self, table):
        table.map_base(BASE, frame=1)
        table.promote(BASE >> 21, frame=2)
        table.demote(BASE >> 21)
        assert table.stats.demotions == 1


class TestGigaPromotion:
    def test_giga_collapse_absorbs_base_and_huge(self, table):
        giga_base = GIGA_PAGE_SIZE  # giga region 1
        table.map_base(giga_base, frame=1)
        table.map_huge(giga_base + HUGE_PAGE_SIZE, frame=2)
        assert table.covered_pages(1, PageSize.GIGA) == 1 + 512
        remapped = table.promote(1, 77, PageSize.GIGA)
        assert remapped == 1  # the 4KB PTE; the 2MB leaf is absorbed too
        assert table.is_promoted(1, PageSize.GIGA)
        assert table.promoted_regions() == []
        assert table.promoted_regions(PageSize.GIGA) == [1]
        assert table.mapped_base_page_count() == 0
        assert table.stats.giga_promotions == 1
        for offset in (0, HUGE_PAGE_SIZE + 5, GIGA_PAGE_SIZE - 1):
            mapping = table.translate(giga_base + offset)
            assert mapping.page_size is PageSize.GIGA
            assert mapping.frame == 77

    def test_giga_collapse_of_empty_region_rejected(self, table):
        with pytest.raises(PageTableError, match="no mapped pages"):
            table.promote(5, 1, PageSize.GIGA)

    def test_giga_collapse_twice_rejected(self, table):
        table.map_base(GIGA_PAGE_SIZE, frame=1)
        table.promote(1, 2, PageSize.GIGA)
        with pytest.raises(PageTableError, match="already promoted"):
            table.promote(1, 3, PageSize.GIGA)


class TestWalkAccessBits:
    def test_walk_of_unmapped_raises(self, table):
        with pytest.raises(PageTableError, match="unmapped"):
            table.walk(BASE)

    def test_first_walk_reports_cold_bits(self, table):
        table.map_base(BASE, frame=1)
        _, pud_was, pmd_was = table.walk(BASE)
        assert not pud_was
        assert not pmd_was

    def test_second_walk_sees_set_bits(self, table):
        table.map_base(BASE, frame=1)
        table.walk(BASE)
        _, pud_was, pmd_was = table.walk(BASE)
        assert pud_was
        assert pmd_was

    def test_sibling_page_in_region_sees_pmd_bit(self, table):
        table.map_base(BASE, frame=1)
        table.map_base(BASE + 4096, frame=2)
        table.walk(BASE)
        _, _, pmd_was = table.walk(BASE + 4096)
        assert pmd_was  # PMD accessed bit is per 2MB region

    def test_giga_walk_has_no_pmd_level(self, table):
        table.map_base(GIGA_PAGE_SIZE, frame=1)
        table.promote(1, 2, PageSize.GIGA)
        mapping, _, pmd_was = table.walk(GIGA_PAGE_SIZE + 123)
        assert mapping.page_size is PageSize.GIGA
        assert not pmd_was

    def test_clear_accessed_bits(self, table):
        table.map_base(BASE, frame=1)
        table.walk(BASE)
        table.clear_accessed_bits()
        _, pud_was, pmd_was = table.walk(BASE)
        assert not pud_was
        assert not pmd_was

    def test_accessed_pages_in_region_counts_pte_bits(self, table):
        table.map_base(BASE, frame=1)
        table.map_base(BASE + 4096, frame=2)
        table.walk(BASE)
        assert table.accessed_pages_in_region(BASE >> 21) == 1
        table.walk(BASE + 4096)
        assert table.accessed_pages_in_region(BASE >> 21) == 2

    def test_region_accessed_flag(self, table):
        table.map_base(BASE, frame=1)
        assert not table.region_accessed(BASE >> 21)
        table.walk(BASE)
        assert table.region_accessed(BASE >> 21)


class TestInventory:
    def test_mapped_pages_in_region(self, table):
        table.map_base(BASE, frame=1)
        table.map_base(BASE + 2 * 4096, frame=2)
        pages = table.mapped_pages_in_region(BASE >> 21)
        assert pages == [BASE >> 12, (BASE >> 12) + 2]

    def test_touched_huge_regions(self, table):
        table.map_base(BASE, frame=1)
        table.map_huge(BASE + 4 * HUGE_PAGE_SIZE, frame=2)
        regions = table.touched_huge_regions()
        assert regions == [BASE >> 21, (BASE >> 21) + 4]
