"""Unit tests for the page-table walker and PCC admission protocol."""

import pytest

from repro.config import WalkerConfig
from repro.tlb.walker import PageTableWalker
from repro.vm.address import GIGA_PAGE_SIZE, HUGE_PAGE_SIZE, PageSize
from repro.vm.pagetable import PageTable

BASE = 0x5555_5540_0000


@pytest.fixture
def table():
    table = PageTable()
    table.map_base(BASE, frame=1)
    table.map_base(BASE + 4096, frame=2)
    return table


@pytest.fixture
def walker():
    return PageTableWalker(WalkerConfig())


class TestAdmissionProtocol:
    def test_first_walk_not_admitted(self, walker, table):
        result = walker.walk(BASE, table)
        assert result.pcc_2mb_candidate is None
        assert result.pcc_1gb_candidate is None

    def test_second_walk_admitted_with_region_prefix(self, walker, table):
        walker.walk(BASE, table)
        result = walker.walk(BASE + 4096, table)
        assert result.pcc_2mb_candidate == BASE >> 21
        assert result.pcc_1gb_candidate == BASE >> 30

    def test_candidate_counters(self, walker, table):
        walker.walk(BASE, table)
        walker.walk(BASE, table)
        assert walker.stats.pcc_candidates_2mb == 1
        assert walker.stats.pcc_candidates_1gb == 1

    def test_huge_leaf_reports_promoted(self, walker):
        table = PageTable()
        table.map_huge(BASE, frame=1)
        walker.walk(BASE, table)
        result = walker.walk(BASE + 4096, table)
        assert result.leaf_is_promoted
        assert result.pcc_2mb_candidate == BASE >> 21

    def test_giga_leaf_skips_2mb_pcc(self, walker):
        table = PageTable()
        table.map_base(GIGA_PAGE_SIZE, frame=1)
        table.promote(1, 2, PageSize.GIGA)
        walker.walk(GIGA_PAGE_SIZE, table)
        result = walker.walk(GIGA_PAGE_SIZE + HUGE_PAGE_SIZE, table)
        assert result.pcc_2mb_candidate is None
        assert result.pcc_1gb_candidate == 1


class TestWalkLatency:
    def test_base_walk_deeper_than_huge(self):
        config = WalkerConfig(pwc_enabled=False)
        walker = PageTableWalker(config)
        table = PageTable()
        table.map_base(BASE, frame=1)
        table.map_huge(BASE + HUGE_PAGE_SIZE, frame=2)
        base_walk = walker.walk(BASE, table)
        huge_walk = walker.walk(BASE + HUGE_PAGE_SIZE, table)
        assert base_walk.cycles == 4 * config.memory_ref_cycles
        assert huge_walk.cycles == 3 * config.memory_ref_cycles

    def test_giga_walk_two_levels(self):
        config = WalkerConfig(pwc_enabled=False)
        walker = PageTableWalker(config)
        table = PageTable()
        table.map_base(GIGA_PAGE_SIZE, frame=1)
        table.promote(1, 2, PageSize.GIGA)
        walk = walker.walk(GIGA_PAGE_SIZE, table)
        assert walk.cycles == 2 * config.memory_ref_cycles

    def test_pwc_reduces_repeat_walk_cost(self, walker, table):
        first = walker.walk(BASE, table)
        second = walker.walk(BASE, table)
        assert second.cycles < first.cycles
        assert walker.stats.pwc_hits > 0

    def test_pwc_leaf_always_references_memory(self, walker, table):
        walker.walk(BASE, table)
        walker.walk(BASE, table)
        # refs/walk can never drop below 1.0 (§5.4.1)
        assert walker.stats.refs_per_walk >= 1.0

    def test_flush_pwc_restores_full_cost(self, walker, table):
        first = walker.walk(BASE, table)
        walker.walk(BASE, table)
        walker.flush_pwc()
        third = walker.walk(BASE, table)
        assert third.cycles == first.cycles

    def test_disabled_pwc_constant_cost(self, table):
        walker = PageTableWalker(WalkerConfig(pwc_enabled=False))
        first = walker.walk(BASE, table)
        second = walker.walk(BASE, table)
        assert first.cycles == second.cycles
        assert walker.stats.pwc_hits == 0


class TestStats:
    def test_walk_counts(self, walker, table):
        walker.walk(BASE, table)
        walker.walk(BASE + 4096, table)
        assert walker.stats.walks == 2
        assert walker.stats.walk_cycles > 0

    def test_refs_per_walk_empty(self, walker):
        assert walker.stats.refs_per_walk == 0.0
