"""Tests for the kernel's PCC dump-mode alternative and compaction."""

import pytest

from repro.config import tiny_config
from repro.engine.simulation import Simulator
from repro.os.kernel import HugePagePolicy, KernelParams
from tests.conftest import make_workload
from tests.engine.test_simulation import hot_cold_addresses


class TestDumpModes:
    def _run(self, mode):
        config = tiny_config()
        params = KernelParams(regions_to_promote=4, pcc_dump_mode=mode)
        simulator = Simulator(config, policy=HugePagePolicy.PCC, params=params)
        result = simulator.run(
            [make_workload(hot_cold_addresses(repeats=2500))]
        )
        return simulator, result

    def test_both_modes_promote_the_hot_region(self):
        for mode in ("flush", "snapshot"):
            simulator, result = self._run(mode)
            table = simulator.kernel.processes[1].page_table
            hot_region = 0x5555_5540_0000 >> 21
            assert table.is_promoted(hot_region), mode
            assert result.promotions > 0, mode

    def test_snapshot_leaves_counters_accumulating(self):
        # promoted entries are shot down, but unpromoted candidates keep
        # their history across intervals (flush mode would clear them)
        simulator, _ = self._run("snapshot")
        # snapshot mode: entries survive the tick (only shootdowns evict)
        assert len(simulator.cores[0].pcc) > 0


class TestSnapshotWithGiga:
    def test_snapshot_mode_with_giga_pcc(self):
        """Snapshot reads work for both PCC granularities."""
        from repro.config import PCCConfig

        config = tiny_config().with_(
            pcc=PCCConfig(entries=4, giga_entries=2, giga_enabled=True)
        )
        params = KernelParams(regions_to_promote=4, pcc_dump_mode="snapshot")
        simulator = Simulator(config, policy=HugePagePolicy.PCC, params=params)
        result = simulator.run(
            [make_workload(hot_cold_addresses(repeats=2000))]
        )
        assert result.accesses == 4000
        assert result.promotions >= 0  # completes with consistent state


class TestCompactionEnabled:
    """Every deliberate promotion path compacts.

    At 90% fragmentation no frame is free, so each 2MB mapping these
    policies make must come from compacting a frame that holds only a
    movable page.
    """

    HOT_REGION = 0x5555_5540_0000 >> 21

    def _run(self, policy):
        params = None
        if policy is HugePagePolicy.ORACLE:
            params = KernelParams(static_huge_regions=(self.HOT_REGION,))
        simulator = Simulator(
            tiny_config(), policy=policy, params=params, fragmentation=0.9
        )
        simulator.run([make_workload(hot_cold_addresses(repeats=2500))])
        return simulator.kernel.physmem.stats

    @pytest.mark.parametrize(
        "policy",
        [
            HugePagePolicy.LINUX_THP,
            HugePagePolicy.HAWKEYE,
            HugePagePolicy.PCC,
            HugePagePolicy.ORACLE,
        ],
        ids=lambda policy: policy.name,
    )
    def test_fragmented_memory_is_compacted_for_huge_pages(self, policy):
        stats = self._run(policy)
        assert stats.huge_allocations > 0
        assert stats.compactions == stats.huge_allocations

    def test_base_pages_only_never_compact(self):
        stats = self._run(HugePagePolicy.NONE)
        assert stats.huge_allocations == 0
        assert stats.compactions == 0
