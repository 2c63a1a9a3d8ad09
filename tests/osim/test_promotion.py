"""Unit tests for the PCC promotion engine."""

import pytest

from repro.core.dump import CandidateRecord
from repro.os.physmem import PhysicalMemory
from repro.os.promotion import PromotionEngine
from repro.vm.address import HUGE_PAGE_SIZE, PageSize
from repro.vm.pagetable import PageTable

BASE = 0x5555_5540_0000
REGION = BASE >> 21


def rec(tag, freq=5, pid=1, core=0, promoted_leaf=False,
        page_size=PageSize.HUGE):
    return CandidateRecord(
        pid=pid, core=core, tag=tag, frequency=freq,
        promoted_leaf=promoted_leaf, page_size=page_size,
    )


def make_engine(frames=16, **kwargs):
    return PromotionEngine(PhysicalMemory(frames * HUGE_PAGE_SIZE), **kwargs)


def table_with_regions(count, pid=1):
    table = PageTable(pid=pid)
    for region in range(count):
        table.map_base(BASE + region * HUGE_PAGE_SIZE, frame=region)
    return table


class TestBasicPromotion:
    def test_promotes_candidates(self):
        engine = make_engine()
        table = table_with_regions(2)
        outcome = engine.run_interval(
            [rec(REGION), rec(REGION + 1)], {1: table}
        )
        assert len(outcome.promoted) == 2
        assert table.is_promoted(REGION)
        assert engine.stats.promotions == 2

    def test_quota_limits_interval(self):
        engine = make_engine(regions_to_promote=1)
        table = table_with_regions(3)
        outcome = engine.run_interval(
            [rec(REGION + i) for i in range(3)], {1: table}
        )
        assert len(outcome.promoted) == 1

    def test_lifetime_budget_enforced(self):
        engine = make_engine()
        table = table_with_regions(3)
        engine.run_interval([rec(REGION)], {1: table}, budget_regions=2)
        outcome = engine.run_interval(
            [rec(REGION + 1), rec(REGION + 2)], {1: table}, budget_regions=2
        )
        assert engine.stats.promotions == 2
        assert len(outcome.promoted) == 1

    def test_highest_frequency_order(self):
        engine = make_engine(regions_to_promote=1)
        table = table_with_regions(2)
        outcome = engine.run_interval(
            [rec(REGION, freq=1), rec(REGION + 1, freq=9)], {1: table}
        )
        assert outcome.promoted[0].tag == REGION + 1

    def test_min_frequency_gate(self):
        engine = make_engine()
        table = table_with_regions(2)
        outcome = engine.run_interval(
            [rec(REGION, freq=0), rec(REGION + 1, freq=3)], {1: table}
        )
        assert [r.tag for r in outcome.promoted] == [REGION + 1]

    def test_shootdown_callback_invoked(self):
        engine = make_engine()
        table = table_with_regions(1)
        calls = []
        engine.run_interval(
            [rec(REGION)], {1: table},
            on_shootdown=lambda pid, tag, size: calls.append((pid, tag, size)),
        )
        assert calls == [(1, REGION, PageSize.HUGE)]

    def test_skips_unknown_pid(self):
        engine = make_engine()
        outcome = engine.run_interval([rec(REGION, pid=99)], {})
        assert outcome.promoted == []

    def test_skips_already_promoted(self):
        engine = make_engine()
        table = table_with_regions(1)
        engine.run_interval([rec(REGION)], {1: table})
        outcome = engine.run_interval([rec(REGION)], {1: table})
        assert outcome.promoted == []

    def test_skips_promoted_leaf_records(self):
        engine = make_engine()
        table = table_with_regions(1)
        outcome = engine.run_interval(
            [rec(REGION, promoted_leaf=True)], {1: table}
        )
        assert outcome.promoted == []

    def test_skips_stale_unmapped_candidate(self):
        engine = make_engine()
        table = table_with_regions(1)
        outcome = engine.run_interval([rec(REGION + 7)], {1: table})
        assert outcome.promoted == []

    def test_unknown_policy_rejected(self):
        engine = make_engine(promotion_policy=3)
        with pytest.raises(ValueError, match="promotion_policy"):
            engine.run_interval([rec(REGION)], {1: table_with_regions(1)})


class TestMemoryPressure:
    def test_failure_counted_when_no_memory(self):
        # every frame pinned: nothing free, nothing compaction can recover
        engine = make_engine(frames=2)
        engine.physmem.fragment(1.0)
        table = table_with_regions(1)
        outcome = engine.run_interval([rec(REGION)], {1: table})
        assert outcome.promoted == []
        assert engine.stats.promotion_failures == 1

    def test_pressure_throttle_spreads_promotions(self):
        # 8 usable frames, quota 8: the throttle caps each interval at
        # capacity // 4 = 2 so later intervals still find room
        engine = make_engine(frames=8, regions_to_promote=8)
        table = table_with_regions(8)
        records = [rec(REGION + i) for i in range(8)]
        outcome = engine.run_interval(records, {1: table})
        assert len(outcome.promoted) == 2

    def test_no_throttle_with_ample_capacity(self):
        engine = make_engine(frames=64, regions_to_promote=4)
        table = table_with_regions(4)
        outcome = engine.run_interval(
            [rec(REGION + i) for i in range(4)], {1: table}
        )
        assert len(outcome.promoted) == 4


class TestCompaction:
    """Promotion frames may be recovered by compacting partial frames."""

    def _fragmented_engine(self, **kwargs):
        # 4 frames: 2 pinned, 2 holding one movable page each — no free
        # frame, but two a compaction pass can empty
        engine = make_engine(frames=4, **kwargs)
        engine.physmem.fragment(0.5)
        return engine

    def test_promotion_compacts_a_partial_frame(self):
        engine = self._fragmented_engine()
        table = table_with_regions(1)
        outcome = engine.run_interval([rec(REGION)], {1: table})
        assert table.is_promoted(REGION)
        assert outcome.pages_migrated == 1
        assert engine.stats.pages_migrated == 1
        assert engine.physmem.stats.compactions == 1

    def test_free_frame_needs_no_migration(self):
        engine = make_engine()
        outcome = engine.run_interval([rec(REGION)], {1: table_with_regions(1)})
        assert len(outcome.promoted) == 1
        assert outcome.pages_migrated == 0
        assert engine.physmem.stats.compactions == 0

    def test_throttle_counts_compactable_frames_as_capacity(self):
        # capacity 0 free + 2 compactable: a quarter of it rounds to 1
        engine = self._fragmented_engine()
        table = table_with_regions(2)
        outcome = engine.run_interval(
            [rec(REGION), rec(REGION + 1)], {1: table}
        )
        assert len(outcome.promoted) == 1


@pytest.mark.parametrize("freq, promoted", [(0, False), (1, True), (2, True)])
def test_min_frequency_is_the_promotion_floor(freq, promoted):
    engine = make_engine()
    table = table_with_regions(1)
    outcome = engine.run_interval([rec(REGION, freq=freq)], {1: table})
    assert table.is_promoted(REGION) is promoted
    assert len(outcome.promoted) == int(promoted)


class TestDemotion:
    def _engine_under_pressure(self):
        """After one promotion, only pinned frames remain free-ish: a
        new promotion needs demotion (plus compaction of the split
        pages into the pinned frames' slack)."""
        engine = make_engine(frames=3, demotion_enabled=True,
                             regions_to_promote=1)
        table = table_with_regions(2)
        # occupy remaining capacity with pinned fragmentation
        engine.run_interval([rec(REGION, freq=2)], {1: table})
        engine.physmem.fragment(1.0)
        return engine, table

    def test_demotes_cold_page_for_hot_candidate(self):
        engine, table = self._engine_under_pressure()
        outcome = engine.run_interval([rec(REGION + 1, freq=50)], {1: table})
        assert [pid_prefix for pid_prefix in outcome.demoted] == [(1, REGION)]
        assert not table.is_promoted(REGION)
        assert table.is_promoted(REGION + 1)

    def test_no_demotion_for_equally_cold_candidate(self):
        engine, table = self._engine_under_pressure()
        outcome = engine.run_interval([rec(REGION + 1, freq=2)], {1: table})
        assert outcome.demoted == []
        assert table.is_promoted(REGION)

    @pytest.mark.parametrize("freq, demoted", [(4, False), (5, True)])
    def test_demotion_ratio_boundary(self, freq, demoted):
        # the resident page was promoted at frequency 2; a candidate
        # must be more than twice as hot (ratio 0.5) to displace it
        engine, table = self._engine_under_pressure()
        outcome = engine.run_interval([rec(REGION + 1, freq=freq)], {1: table})
        assert (outcome.demoted == [(1, REGION)]) is demoted
        assert table.is_promoted(REGION) is not demoted

    def test_still_hot_pages_protected(self):
        engine, table = self._engine_under_pressure()
        records = [
            rec(REGION, freq=40, promoted_leaf=True),  # still walking
            rec(REGION + 1, freq=50),
        ]
        outcome = engine.run_interval(records, {1: table})
        assert outcome.demoted == []

    def test_demotion_disabled_by_default(self):
        engine = make_engine(frames=2, regions_to_promote=1)
        table = table_with_regions(2)
        engine.run_interval([rec(REGION, freq=2)], {1: table})
        engine.physmem.fragment(1.0)
        outcome = engine.run_interval([rec(REGION + 1, freq=50)], {1: table})
        assert outcome.demoted == []
        assert engine.stats.promotion_failures == 1


GIGA = 2  # virtual 1GB region number of the test candidates


def giga_table(giga=GIGA, regions=1, pid=1):
    table = PageTable(pid=pid)
    for region in range(regions):
        table.map_base((giga << 30) + region * HUGE_PAGE_SIZE, frame=region)
    return table


class TestGigaPromotion:
    def test_promotes_when_frequency_dominates(self):
        engine = make_engine(frames=2048)
        table = giga_table()
        record = rec(GIGA, freq=200, page_size=PageSize.GIGA)
        outcome = engine.run_interval([record], {1: table})
        assert outcome.promoted == [record]
        assert table.is_promoted(GIGA, PageSize.GIGA)
        assert engine.stats.giga_promotions == 1
        assert engine.stats.promotions == 0
        # one 1GB page holds a 1GB-aligned run of 512 frames
        assert engine.physmem.huge_frames_in_use() == 512
        assert table.translate(GIGA << 30).frame % 512 == 0

    def test_skipped_when_2mb_serves_well(self):
        """§3.2.3's intent with saturating counters: promote to 1GB only
        when the 1GB frequency dominates every constituent 2MB entry —
        a lone hot child saturates alongside the 1GB entry and blocks
        the collective promotion."""
        engine = make_engine(frames=2048)
        table = giga_table()
        constituent = rec(GIGA << 9, freq=150)  # hot first 2MB child
        outcome = engine.run_interval(
            [constituent, rec(GIGA, freq=200, page_size=PageSize.GIGA)],
            {1: table},
        )
        assert outcome.promoted == [constituent]
        assert engine.stats.giga_promotions == 0

    def test_giga_shootdown_callback(self):
        engine = make_engine(frames=2048)
        table = giga_table(giga=5)
        seen = []
        engine.run_interval(
            [rec(5, freq=200, page_size=PageSize.GIGA)],
            {1: table},
            on_shootdown=lambda pid, tag, size: seen.append((pid, tag, size)),
        )
        assert seen == [(1, 5, PageSize.GIGA)]

    def test_2mb_candidates_run_first_each_with_its_own_quota(self):
        engine = make_engine(frames=2048, regions_to_promote=1)
        table = giga_table(regions=2)
        outcome = engine.run_interval(
            [rec(GIGA, freq=250, page_size=PageSize.GIGA),
             rec((GIGA << 9) + 1, freq=10),
             rec(GIGA << 9, freq=9)],
            {1: table},
        )
        # the hotter 1GB candidate waits for the 2MB pass, and the 2MB
        # pass's quota of one leaves the 1GB pass its own
        assert [(r.tag, r.page_size) for r in outcome.promoted] == [
            ((GIGA << 9) + 1, PageSize.HUGE), (GIGA, PageSize.GIGA)
        ]

    def test_absorbs_2mb_pages_and_frees_their_frames(self):
        engine = make_engine(frames=2048, demotion_enabled=True)
        table = giga_table(regions=2)
        child = GIGA << 9
        engine.run_interval([rec(child, freq=9)], {1: table})
        assert engine.physmem.huge_frames_in_use() == 1
        engine.run_interval(
            [rec(GIGA, freq=200, page_size=PageSize.GIGA)], {1: table}
        )
        assert table.promoted_regions() == []
        assert engine.physmem.huge_frames_in_use() == 512
        # the absorbed 2MB page left the demotion bookkeeping
        assert engine._huge_frames == {}
        assert engine._promo_frequency == {}
        assert not engine._probing and not engine._cold

    def test_bloat_counts_the_unmapped_gigabyte(self):
        engine = make_engine(frames=2048)
        table = giga_table(regions=2)
        engine.run_interval(
            [rec(GIGA, freq=200, page_size=PageSize.GIGA)], {1: table}
        )
        assert engine.stats.bloat_pages == PageSize.GIGA.base_pages - 2

    def test_releases_remapped_base_pages(self):
        engine = make_engine(frames=2048)
        engine.physmem.allocate_base(3)
        table = PageTable(pid=1)
        for page in range(3):
            table.map_base((GIGA << 30) + page * 4096, frame=page)
        engine.run_interval(
            [rec(GIGA, freq=200, page_size=PageSize.GIGA)], {1: table}
        )
        assert engine.physmem.base_pages_in_use() == 0

    @pytest.mark.parametrize("budget, promoted", [(511, 0), (512, 1)])
    def test_counts_512_regions_against_budget(self, budget, promoted):
        engine = make_engine(frames=2048)
        table = giga_table()
        engine.run_interval(
            [rec(GIGA, freq=200, page_size=PageSize.GIGA)], {1: table},
            budget_regions=budget,
        )
        assert engine.stats.giga_promotions == promoted

    def test_refused_without_a_free_gigabyte_run(self):
        engine = make_engine(frames=512)
        engine.physmem.fragment(1.0)
        table = giga_table(giga=0)
        outcome = engine.run_interval(
            [rec(0, freq=200, page_size=PageSize.GIGA)], {1: table}
        )
        assert outcome.promoted == []
        assert engine.stats.promotion_failures == 1
        assert not table.is_promoted(0, PageSize.GIGA)

    def test_refused_when_memory_is_smaller_than_a_gigabyte(self):
        engine = make_engine(frames=16)
        table = giga_table(giga=0)
        outcome = engine.run_interval(
            [rec(0, freq=200, page_size=PageSize.GIGA)], {1: table}
        )
        assert outcome.promoted == []
        assert engine.stats.promotion_failures == 1

    def test_never_demotes_for_a_gigabyte(self):
        engine = make_engine(frames=512, demotion_enabled=True)
        table = giga_table(giga=0, regions=2)
        engine.run_interval([rec(0, freq=2)], {1: table})
        outcome = engine.run_interval(
            [rec(0, freq=250, page_size=PageSize.GIGA)], {1: table}
        )
        assert outcome.demoted == []
        assert table.is_promoted(0)
