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
            on_shootdown=lambda pid, prefix: calls.append((pid, prefix)),
        )
        assert calls == [(1, REGION)]

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


class TestGigaPromotion:
    def test_promotes_when_frequency_dominates(self):
        engine = make_engine()
        table = PageTable(pid=1)
        giga = 2
        table.map_base(giga << 30, frame=1)
        promoted = engine.maybe_promote_giga(
            records_2mb=[],
            records_1gb=[rec(giga, freq=200, page_size=PageSize.GIGA)],
            page_tables={1: table},
        )
        assert len(promoted) == 1
        assert table.is_giga_promoted(giga)
        assert engine.stats.giga_promotions == 1

    def test_skipped_when_2mb_serves_well(self):
        """§3.2.3's intent with saturating counters: promote to 1GB only
        when the 1GB frequency dominates every constituent 2MB entry —
        a lone hot child saturates alongside the 1GB entry and blocks
        the collective promotion."""
        engine = make_engine()
        table = PageTable(pid=1)
        giga = 2
        table.map_base(giga << 30, frame=1)
        constituent = rec((giga << 9), freq=150)  # hot first 2MB child
        promoted = engine.maybe_promote_giga(
            records_2mb=[constituent],
            records_1gb=[rec(giga, freq=200, page_size=PageSize.GIGA)],
            page_tables={1: table},
        )
        assert promoted == []

    def test_giga_shootdown_callback(self):
        engine = make_engine()
        table = PageTable(pid=1)
        table.map_base(5 << 30, frame=1)
        seen = []
        engine.maybe_promote_giga(
            records_2mb=[],
            records_1gb=[rec(5, freq=200, page_size=PageSize.GIGA)],
            page_tables={1: table},
            on_giga_shootdown=lambda pid, giga: seen.append((pid, giga)),
        )
        assert seen == [(1, 5)]
