"""Additional physical-memory scenarios: compaction mechanics."""

import pytest

from repro.os.physmem import FrameState, OutOfMemoryError, PhysicalMemory
from repro.vm.address import HUGE_PAGE_SIZE, PAGES_PER_HUGE, PageSize


def make_mem(frames=8):
    return PhysicalMemory(frames * HUGE_PAGE_SIZE)


class TestCompactionMechanics:
    def test_compaction_prefers_emptiest_source(self):
        mem = make_mem(4)
        # frame 0: 3 pages; frame 1: 500 pages (room to absorb 3)
        mem.allocate_base(count=3)
        mem._fill_cursor = 1
        mem.allocate_base(count=500)
        # consume the two free frames as huge pages
        mem.allocate_huge()
        mem.allocate_huge()
        frame, migrated = mem.allocate_huge(allow_compaction=True)
        # the 3-page frame is the cheaper source
        assert migrated == 3

    def test_compaction_fails_without_destination_capacity(self):
        mem = make_mem(2)
        # two frames nearly full: no destination slack anywhere
        mem.allocate_base(count=PAGES_PER_HUGE)
        mem.allocate_base(count=PAGES_PER_HUGE - 1)
        with pytest.raises(OutOfMemoryError):
            mem.allocate_huge(allow_compaction=True)

    def test_compaction_never_uses_free_frames_as_destination(self):
        mem = make_mem(3)
        mem.allocate_base(count=5)  # frame 0 partial
        # frames 1, 2 free; compaction should NOT be needed at all
        frame, migrated = mem.allocate_huge(allow_compaction=True)
        assert migrated == 0
        # and the partial frame is untouched
        assert mem._frames[0].used_base_pages == 5

    def test_migrated_pages_counted_in_stats(self):
        mem = make_mem(3)
        mem.allocate_base(count=7)  # frame 0
        first, _ = mem.allocate_huge()  # frame 1
        mem.allocate_huge()  # frame 2: now nothing free
        mem.free_huge(first, as_base_pages=10)  # frame 1 partial again
        frame, migrated = mem.allocate_huge(allow_compaction=True)
        # the 7-page frame is the emptiest source; its pages moved
        assert migrated == 7
        assert mem.stats.pages_migrated == 7


class TestFragmentationRandomized:
    def test_rng_spread_still_pins_exact_count(self):
        import numpy as np

        mem = make_mem(16)
        pinned = mem.fragment(0.5, rng=np.random.default_rng(3))
        assert pinned == 8
        states = [f for f in mem._frames if f.pinned_pages]
        assert len(states) == 8

    def test_fragment_is_idempotent_on_used_memory(self):
        mem = make_mem(4)
        mem.allocate_huge()
        mem.allocate_huge()
        mem.allocate_huge()
        mem.allocate_huge()
        # nothing free: nothing to pin
        assert mem.fragment(1.0) == 0


class TestFrameStateTransitions:
    def test_full_lifecycle(self):
        mem = make_mem(2)
        frame, _ = mem.allocate_huge()
        assert mem._frames[frame].state is FrameState.HUGE
        mem.free_huge(frame, as_base_pages=PAGES_PER_HUGE)
        assert mem._frames[frame].state is FrameState.PARTIAL
        released = mem.release_base_pages(PAGES_PER_HUGE)
        assert released == PAGES_PER_HUGE
        assert mem._frames[frame].state is FrameState.FREE


class TestGigaAllocation:
    """A 1GB page claims a 1GB-aligned run of 512 frames."""

    def test_claims_the_first_free_aligned_run(self):
        mem = make_mem(1024)
        mem.allocate_huge()  # frame 0 breaks the first run
        start, migrated = mem.allocate_huge(size=PageSize.GIGA)
        assert (start, migrated) == (512, 0)
        assert mem.huge_frames_in_use() == 1 + 512
        assert mem.stats.huge_allocations == 2

    def test_compaction_empties_an_unpinned_run(self):
        mem = make_mem(1024)
        mem.allocate_base(count=3)  # frame 0
        mem._fill_cursor = 600
        mem.allocate_base(count=10)  # frame 600: destination slack
        mem.allocate_huge()  # frame 1: run 0 now also holds a huge page
        with pytest.raises(OutOfMemoryError):
            mem.allocate_huge(size=PageSize.GIGA)  # no compaction
        mem.free_huge(1)
        start, migrated = mem.allocate_huge(
            allow_compaction=True, size=PageSize.GIGA
        )
        # run 0 moves 3 pages, run 1 would move 10: the cheaper one wins
        assert (start, migrated) == (0, 3)
        assert mem.base_pages_in_use() == 13
        assert mem.stats.compactions == 1

    def test_a_huge_frame_in_every_run_refuses(self):
        mem = make_mem(1024)
        mem._fill_cursor = 1
        mem.allocate_huge()  # frame 0
        mem._frames[512].state = FrameState.HUGE
        with pytest.raises(OutOfMemoryError):
            mem.allocate_huge(allow_compaction=True, size=PageSize.GIGA)
        assert mem.stats.huge_failures == 1

    def test_pinned_pages_refuse_even_with_compaction(self):
        mem = make_mem(512)
        mem.fragment(0.01, scatter_movable=False)
        with pytest.raises(OutOfMemoryError):
            mem.allocate_huge(allow_compaction=True, size=PageSize.GIGA)

    def test_memory_below_a_gigabyte_refuses(self):
        with pytest.raises(OutOfMemoryError):
            make_mem(511).allocate_huge(allow_compaction=True,
                                        size=PageSize.GIGA)

    def test_fragment_counts_the_pages_it_places(self):
        mem = make_mem(16)
        mem.fragment(0.25)
        assert mem.stats.fragment_pages == 16
        assert mem.base_pages_in_use() == 16
        other = make_mem(16)
        other.fragment(0.25, scatter_movable=False)
        assert other.stats.fragment_pages == 4
