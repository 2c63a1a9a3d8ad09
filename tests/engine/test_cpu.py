"""Unit tests for the per-core pipeline (TLBs + walker + PCC)."""

import pytest

from repro.config import tiny_config
from repro.engine.cpu import Core
from repro.tlb.hierarchy import HitLevel
from repro.vm.address import HUGE_PAGE_SIZE
from repro.vm.pagetable import PageTable

BASE = 0x5555_5540_0000
VPN = BASE >> 12
REGION = BASE >> 21


@pytest.fixture
def table():
    table = PageTable()
    for page in range(8):
        table.map_base(BASE + page * 4096, frame=page)
    return table


@pytest.fixture
def core():
    return Core(tiny_config())


class TestAccessPath:
    def test_first_access_walks(self, core, table):
        cycles = core.access_page(VPN, table)
        assert core.stats.walks == 1
        assert cycles > 0

    def test_second_access_hits_l1_free(self, core, table):
        core.access_page(VPN, table)
        cycles = core.access_page(VPN, table)
        assert cycles == 0  # L1 hit costs nothing extra
        assert core.stats.l1_hits == 1

    def test_repeat_counts_as_l1_hits(self, core, table):
        core.access_page(VPN, table, repeat=10)
        assert core.stats.accesses == 10
        assert core.stats.walks == 1
        assert core.stats.l1_hits == 9

    def test_walk_rate(self, core, table):
        core.access_page(VPN, table, repeat=4)
        assert core.stats.walk_rate == 0.25


class TestPCCAdmission:
    def test_cold_region_not_admitted(self, core, table):
        core.access_page(VPN, table)
        assert len(core.pcc) == 0

    def test_warm_region_admitted_after_tlb_pressure(self, core, table):
        core.access_page(VPN, table)
        # 2nd walk to the same region (different page): PMD bit set
        core.access_page(VPN + 1, table)
        assert REGION in core.pcc

    def test_pcc_frequency_grows_with_walks(self, core, table):
        for page in range(4):
            core.access_page(VPN + page, table)
        assert core.pcc.frequency_of(REGION) == 2  # walks 2,3,4 admitted; 1st inserts at 0


class TestShootdown:
    def test_shootdown_invalidates_tlb_and_pcc(self, core, table):
        core.access_page(VPN, table)
        core.access_page(VPN + 1, table)
        assert REGION in core.pcc
        core.shootdown(REGION)
        assert REGION not in core.pcc
        # next access walks again
        walks_before = core.stats.walks
        core.access_page(VPN, table)
        assert core.stats.walks == walks_before + 1

    def test_shootdown_of_absent_region_harmless(self, core):
        core.shootdown(12345)


class TestPromotedMapping:
    def test_huge_mapping_served_by_huge_tlb(self, core, table):
        table.promote(REGION, frame=9)
        core.access_page(VPN, table)
        cycles = core.access_page(VPN + 1, table)  # same 2MB entry
        assert cycles == 0
        assert core.stats.walks == 1

    def test_snapshot_read_is_ranked(self, core, table):
        for page in range(4):
            core.access_page(VPN + page, table)
        entries = core.pcc.ranked()
        assert entries[0].tag == REGION
        assert len(core.pcc) == 1  # dump does not clear


class TestGigaPCC:
    def test_disabled_by_default(self, core):
        assert core.pcc_1gb is None

    def test_enabled_tracks_1gb_regions(self, table):
        from repro.config import PCCConfig

        config = tiny_config().with_(
            pcc=PCCConfig(entries=4, giga_entries=2, giga_enabled=True)
        )
        core = Core(config)
        core.access_page(VPN, table)
        core.access_page(VPN + 1, table)
        assert core.pcc_1gb is not None
        assert (BASE >> 30) in core.pcc_1gb


class TestTranslateLevel:
    """``translate`` reports the structure that answered and its cost."""

    def test_cold_page_walks(self, core, table):
        cycles, level = core.translate(VPN, table)
        assert level is HitLevel.MISS
        assert cycles == core.stats.translation_cycles > 0

    def test_resident_page_hits_l1_for_every_repeat(self, core, table):
        core.translate(VPN, table)
        cycles, level = core.translate(VPN, table, repeat=3)
        assert level is HitLevel.L1
        assert cycles == 3 * core.config.timing.l1_tlb_hit_cycles
        assert core.stats.l1_hits == 3

    def test_l1_victim_is_answered_by_l2(self, core, table):
        # three pages of one 2-way L1 set: the first is evicted to L2
        for page in (0, 2, 4):
            core.translate(VPN + page, table)
        cycles, level = core.translate(VPN, table)
        assert level is HitLevel.L2
        assert cycles == core.config.timing.l2_tlb_hit_cycles
        assert core.stats.l2_hits == 1
        assert core.stats.walks == 3

    def test_promoted_region_is_answered_by_the_2mb_l1(self, core, table):
        table.promote(REGION, frame=9)
        assert core.translate(VPN, table)[1] is HitLevel.MISS
        cycles, level = core.translate(VPN + 5, table)
        assert level is HitLevel.L1
        assert cycles == core.config.timing.l1_tlb_hit_cycles
        assert core.tlb.l1_huge.stats.hits == 1

    @pytest.mark.parametrize(
        "pages", [[0, 0, 1], [0, 2, 4, 0, 2], [7, 6, 5, 4, 3, 2, 1, 0, 7]]
    )
    def test_access_page_charges_what_translate_reports(self, table, pages):
        by_translate, by_access = Core(tiny_config()), Core(tiny_config())
        for page in pages:
            cycles, _ = by_translate.translate(VPN + page, table, repeat=2)
            assert by_access.access_page(VPN + page, table, repeat=2) == cycles
        assert by_access.stats == by_translate.stats
