"""Unit tests for the single TLB structure."""

import pytest

from repro.config import TLBConfig
from repro.tlb.tlb import TLB
from repro.vm.address import PageSize


def make_tlb(entries=4, ways=2):
    return TLB(TLBConfig(entries, ways, (PageSize.BASE,)))


class TestConfigValidation:
    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TLBConfig(0, 1, (PageSize.BASE,))

    def test_rejects_indivisible_ways(self):
        with pytest.raises(ValueError):
            TLBConfig(6, 4, (PageSize.BASE,))

    def test_rejects_empty_page_sizes(self):
        with pytest.raises(ValueError):
            TLBConfig(4, 2, ())

    def test_full_associativity(self):
        config = TLBConfig(8, 0, (PageSize.BASE,))
        assert config.ways == 8
        assert config.sets == 1


class TestLookupFill:
    def test_miss_then_hit(self):
        tlb = make_tlb()
        assert not tlb.lookup(5)
        tlb.fill(5, PageSize.BASE)
        assert tlb.lookup(5)
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1

    def test_probe_does_not_change_stats(self):
        tlb = make_tlb()
        tlb.fill(5, PageSize.BASE)
        assert tlb.probe(5)
        assert not tlb.probe(6)
        assert tlb.stats.hits == 0
        assert tlb.stats.misses == 0

    def test_refill_existing_entry_no_eviction(self):
        tlb = make_tlb()
        tlb.fill(5, PageSize.BASE)
        assert tlb.fill(5, PageSize.BASE) is None
        assert tlb.occupancy() == 1


class TestLRU:
    def test_lru_eviction_within_set(self):
        tlb = make_tlb(entries=4, ways=2)  # 2 sets
        # tags 0, 2, 4 map to set 0
        tlb.fill(0, PageSize.BASE)
        tlb.fill(2, PageSize.BASE)
        victim = tlb.fill(4, PageSize.BASE)
        assert victim == 0  # oldest
        assert not tlb.probe(0)
        assert tlb.probe(2)

    def test_hit_refreshes_lru(self):
        tlb = make_tlb(entries=4, ways=2)
        tlb.fill(0, PageSize.BASE)
        tlb.fill(2, PageSize.BASE)
        tlb.lookup(0)  # 0 becomes MRU
        victim = tlb.fill(4, PageSize.BASE)
        assert victim == 2

    def test_conflicts_only_within_set(self):
        tlb = make_tlb(entries=4, ways=2)
        # set 0 gets 3 tags, set 1 untouched
        tlb.fill(1, PageSize.BASE)  # set 1
        tlb.fill(0, PageSize.BASE)
        tlb.fill(2, PageSize.BASE)
        tlb.fill(4, PageSize.BASE)  # evicts from set 0 only
        assert tlb.probe(1)

    def test_eviction_counter(self):
        tlb = make_tlb(entries=2, ways=1)
        tlb.fill(0, PageSize.BASE)
        tlb.fill(2, PageSize.BASE)
        assert tlb.stats.evictions == 1


class TestInvalidation:
    def test_invalidate_present(self):
        tlb = make_tlb()
        tlb.fill(5, PageSize.BASE)
        assert tlb.invalidate(5)
        assert not tlb.probe(5)
        assert tlb.stats.invalidations == 1

    def test_invalidate_absent(self):
        tlb = make_tlb()
        assert not tlb.invalidate(5)
        assert tlb.stats.invalidations == 0

    def test_flush(self):
        tlb = make_tlb()
        for tag in range(4):
            tlb.fill(tag, PageSize.BASE)
        tlb.flush()
        assert tlb.occupancy() == 0
        assert tlb.stats.invalidations == 4


class TestStats:
    def test_miss_rate(self):
        tlb = make_tlb()
        tlb.lookup(1)
        tlb.fill(1, PageSize.BASE)
        tlb.lookup(1)
        assert tlb.stats.miss_rate == 0.5

    def test_miss_rate_no_accesses(self):
        assert make_tlb().stats.miss_rate == 0.0

    def test_resident_tags(self):
        tlb = make_tlb()
        tlb.fill(3, PageSize.BASE)
        tlb.fill(8, PageSize.BASE)
        assert tlb.resident_tags() == {3, 8}


class TestNonPowerOfTwoSets:
    def test_three_sets_work(self):
        tlb = TLB(TLBConfig(6, 2, (PageSize.BASE,)))  # 3 sets
        for tag in range(12):
            tlb.fill(tag, PageSize.BASE)
        assert tlb.occupancy() == 6
        assert tlb.probe(11)
