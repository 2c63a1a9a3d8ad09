"""Core-level tests for 1GB-path behaviour."""

import pytest

from repro.config import PCCConfig, tiny_config
from repro.engine.cpu import Core
from repro.vm.address import GIGA_PAGE_SIZE, HUGE_PAGE_SIZE, PageSize
from repro.vm.pagetable import PageTable


@pytest.fixture
def giga_core():
    config = tiny_config().with_(
        pcc=PCCConfig(entries=4, giga_entries=2, giga_enabled=True)
    )
    return Core(config)


class TestGigaTracking:
    def test_walks_from_different_2mb_regions_share_1gb_entry(self, giga_core):
        table = PageTable()
        base = GIGA_PAGE_SIZE  # giga region 1
        table.map_base(base, frame=0)
        table.map_base(base + HUGE_PAGE_SIZE, frame=1)
        giga_core.access_page(base >> 12, table)
        giga_core.access_page((base + HUGE_PAGE_SIZE) >> 12, table)
        assert 1 in giga_core.pcc_1gb
        # the two walks hit different 2MB prefixes
        assert len(giga_core.pcc) <= 2

    def test_giga_mapping_serves_whole_gigabyte(self, giga_core):
        table = PageTable()
        base = 2 * GIGA_PAGE_SIZE
        table.map_base(base, frame=0)
        table.promote(2, 0, PageSize.GIGA)
        giga_core.access_page(base >> 12, table)
        walks_before = giga_core.stats.walks
        # an access 700MB away hits the same 1GB TLB entry
        far = base + 700 * (1 << 20)
        cycles = giga_core.access_page(far >> 12, table)
        assert giga_core.stats.walks == walks_before
        assert cycles == 0

    def test_promoted_giga_walks_flagged(self, giga_core):
        table = PageTable()
        base = 3 * GIGA_PAGE_SIZE
        table.map_base(base, frame=0)
        table.promote(3, 0, PageSize.GIGA)
        giga_core.access_page(base >> 12, table)
        # force the entry out of the tiny giga TLB to walk again
        giga_core.tlb.flush()
        giga_core.access_page((base + HUGE_PAGE_SIZE) >> 12, table)
        entry = next(iter(giga_core.pcc_1gb.ranked()), None)
        assert entry is not None
        assert entry.promoted_leaf

    def test_giga_pcc_capacity_respected(self, giga_core):
        table = PageTable()
        for giga in range(4, 10):
            base = giga * GIGA_PAGE_SIZE
            table.map_base(base, frame=0)
            giga_core.access_page(base >> 12, table)
            giga_core.access_page(base >> 12, table)
        assert len(giga_core.pcc_1gb) <= 2

    def test_2mb_leaf_does_not_flag_the_1gb_entry(self, giga_core):
        """The 1GB PCC's ``promoted_leaf`` means "already a 1GB leaf":
        walks through a 2MB leaf are the signal to promote further."""
        table = PageTable()
        base = 4 * GIGA_PAGE_SIZE
        table.map_huge(base, frame=0)
        giga_core.access_page(base >> 12, table)
        giga_core.tlb.flush()
        giga_core.access_page((base >> 12) + 1, table)
        entry = next(iter(giga_core.pcc_1gb.ranked()))
        assert not entry.promoted_leaf


class TestGigaShootdown:
    def test_flushes_translations_and_the_1gb_entry(self, giga_core):
        table = PageTable()
        base = GIGA_PAGE_SIZE
        table.map_base(base, frame=0)
        table.map_base(base + 4096, frame=1)
        giga_core.access_page(base >> 12, table)
        giga_core.access_page((base >> 12) + 1, table)
        assert 1 in giga_core.pcc_1gb
        giga_core.shootdown(1, PageSize.GIGA)
        assert 1 not in giga_core.pcc_1gb
        assert giga_core.tlb.l1_base.occupancy() == 0
        walks = giga_core.stats.walks
        giga_core.access_page(base >> 12, table)
        assert giga_core.stats.walks == walks + 1

    def test_2mb_shootdown_keeps_the_1gb_entry(self, giga_core):
        table = PageTable()
        base = GIGA_PAGE_SIZE
        table.map_base(base, frame=0)
        table.map_base(base + 4096, frame=1)
        giga_core.access_page(base >> 12, table)
        giga_core.access_page((base >> 12) + 1, table)
        giga_core.shootdown(base >> 21)
        assert 1 in giga_core.pcc_1gb
        assert (base >> 21) not in giga_core.pcc
