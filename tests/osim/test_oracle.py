"""Tests for profile-guided static huge-page allocation (§5.4.2)."""

import numpy as np
import pytest

from repro.os.oracle import (
    StaticHugeAllocator,
    hub_regions_from_profile,
)
from repro.os.physmem import PhysicalMemory
from repro.trace.events import Trace
from repro.vm.address import HUGE_PAGE_SIZE
from repro.vm.pagetable import PageTable

BASE = 0x5555_5540_0000
REGION = BASE >> 21


def make_allocator(regions, frames=8, **kwargs):
    return StaticHugeAllocator(
        PhysicalMemory(frames * HUGE_PAGE_SIZE), regions, **kwargs
    )


class TestStaticAllocator:
    def test_annotated_region_gets_huge_at_first_fault(self):
        allocator = make_allocator([REGION])
        table = PageTable()
        assert allocator.handle_fault(table, BASE)
        assert table.is_promoted(REGION)
        assert allocator.stats.huge_faults == 1

    def test_unannotated_region_gets_base(self):
        allocator = make_allocator([REGION])
        table = PageTable()
        other = BASE + 4 * HUGE_PAGE_SIZE
        assert not allocator.handle_fault(table, other)
        assert table.mapped_base_page_count() == 1

    def test_second_fault_in_huge_region_noop_huge(self):
        allocator = make_allocator([REGION])
        table = PageTable()
        allocator.handle_fault(table, BASE)
        # the region is already huge: the fault is satisfied by it...
        # (the simulator would not even fault; calling again must not
        # double-allocate)
        assert table.is_promoted(REGION)

    def test_fragmentation_falls_back_to_base(self):
        allocator = make_allocator([REGION], frames=2)
        allocator.physmem.fragment(1.0)  # every frame pinned
        table = PageTable()
        assert not allocator.handle_fault(table, BASE)
        assert allocator.stats.huge_failures == 1

    def test_base_pages_preexisting_block_huge(self):
        allocator = make_allocator([REGION])
        table = PageTable()
        table.map_base(BASE + 4096, frame=0)
        assert not allocator.handle_fault(table, BASE)


class TestProfileOracle:
    def test_hub_regions_found(self):
        # 20 pages in one region cycled (HUB) + a one-shot sweep elsewhere
        hub_pages = [REGION * 512 + i for i in range(20)]
        sweep = [REGION * 512 + 512 * (2 + i) for i in range(30)]
        sequence = (hub_pages * 5) + sweep
        trace = Trace(
            "t", np.array(sequence, dtype=np.uint64) << np.uint64(12)
        )
        regions = hub_regions_from_profile(trace, threshold=10)
        assert regions[0] == REGION

    def test_limit(self):
        pages = []
        for region in range(4):
            pages += [(REGION + region) * 512 + i for i in range(20)]
        trace = Trace(
            "t", np.array(pages * 3, dtype=np.uint64) << np.uint64(12)
        )
        regions = hub_regions_from_profile(trace, threshold=10, limit=2)
        assert len(regions) == 2


class TestOraclePolicyEndToEnd:
    def test_oracle_matches_pcc_with_good_profile(self):
        """With a fresh profile, static allocation performs at least as
        well as dynamic promotion (no promotion lag, no copies)."""
        import copy

        from repro.config import scaled_config
        from repro.engine.simulation import Simulator
        from repro.experiments.common import memory_for
        from repro.os.kernel import HugePagePolicy, KernelParams
        from repro.workloads.bfs import bfs_workload
        from repro.workloads.graph import kronecker

        workload = bfs_workload(kronecker(scale=11, degree=8))
        trace_regions = hub_regions_from_profile(
            Trace(
                "bfs",
                workload.threads[0].trace.vpns.astype(np.uint64)
                << np.uint64(12),
            ),
            threshold=128,
        )
        config = scaled_config(
            memory_bytes=memory_for(workload),
            promote_every_accesses=workload.total_accesses // 12,
        )
        baseline = Simulator(config, policy=HugePagePolicy.NONE).run(
            [copy.deepcopy(workload)]
        )
        oracle = Simulator(
            config,
            policy=HugePagePolicy.ORACLE,
            params=KernelParams(static_huge_regions=tuple(trace_regions)),
        ).run([copy.deepcopy(workload)])
        pcc = Simulator(config, policy=HugePagePolicy.PCC).run(
            [copy.deepcopy(workload)]
        )
        assert oracle.total_cycles < baseline.total_cycles
        assert oracle.walk_rate < pcc.walk_rate + 0.02
