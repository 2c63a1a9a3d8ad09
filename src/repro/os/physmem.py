"""Physical memory at 2MB-frame granularity.

Memory is organized as an array of 2MB-aligned *huge frames*, each of
which is either entirely free, carved into 4KB base allocations, pinned
(holds a non-movable kernel page), or backing (part of) a huge page. A
2MB page needs one fully-free frame and a 1GB page a 1GB-aligned run of
512, which is what fragmentation destroys; compaction migrates movable
base pages out of partially-used, unpinned frames to recreate free
frames at a per-page cycle cost.

Fragmentation injection follows §5.1.1 verbatim: "We fragment memory by
allocating one non-movable page in every 2MB-aligned region" — applied
to the requested fraction of frames.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.vm.address import HUGE_PAGE_SHIFT, HUGE_PAGE_SIZE, PAGES_PER_HUGE, PageSize


class FrameState(enum.Enum):
    """Lifecycle of one 2MB physical frame."""

    FREE = "free"
    PARTIAL = "partial"  # carved into 4KB pages, possibly pinned ones
    HUGE = "huge"  # backing one 2MB page, or 1/512 of a 1GB page


class OutOfMemoryError(Exception):
    """No physical frame can satisfy the request."""


@dataclass
class PhysMemStats:
    """Allocation/compaction counters."""

    base_allocations: int = 0
    huge_allocations: int = 0
    huge_failures: int = 0
    compactions: int = 0
    pages_migrated: int = 0
    huge_frees: int = 0
    #: 4KB pages :meth:`PhysicalMemory.fragment` placed (pinned or not)
    fragment_pages: int = 0


@dataclass
class _Frame:
    state: FrameState = FrameState.FREE
    used_base_pages: int = 0
    pinned_pages: int = 0

    @property
    def movable_pages(self) -> int:
        return self.used_base_pages - self.pinned_pages


class PhysicalMemory:
    """2MB-frame-granular allocator with fragmentation and compaction."""

    def __init__(self, total_bytes: int) -> None:
        if total_bytes < HUGE_PAGE_SIZE:
            raise ValueError(
                f"need at least one 2MB frame, got {total_bytes} bytes"
            )
        self.total_frames = total_bytes // HUGE_PAGE_SIZE
        self._frames = [_Frame() for _ in range(self.total_frames)]
        #: frame currently receiving 4KB carve-outs (bump allocation)
        self._fill_cursor = 0
        self.stats = PhysMemStats()

    # ------------------------------------------------------------------
    # queries

    def free_huge_frames(self) -> int:
        """Frames immediately available for huge allocation."""
        return sum(1 for f in self._frames if f.state is FrameState.FREE)

    def compactable_frames(self) -> int:
        """Partial frames with no pinned pages (recoverable by compaction)."""
        return sum(
            1
            for f in self._frames
            if f.state is FrameState.PARTIAL and f.pinned_pages == 0
        )

    def huge_frames_in_use(self) -> int:
        """Frames currently backing huge pages."""
        return sum(1 for f in self._frames if f.state is FrameState.HUGE)

    def base_pages_in_use(self) -> int:
        """4KB pages currently carved out of partial frames."""
        return sum(
            f.used_base_pages
            for f in self._frames
            if f.state is FrameState.PARTIAL
        )

    def fragmentation_fraction(self) -> float:
        """Fraction of frames unable to back a huge page right now."""
        return 1.0 - self.free_huge_frames() / self.total_frames

    # ------------------------------------------------------------------
    # fragmentation injection (§5.1.1)

    def fragment(
        self,
        fraction: float,
        rng: np.random.Generator | None = None,
        scatter_movable: bool = True,
    ) -> int:
        """Pin one non-movable 4KB page in ``fraction`` of the frames.

        Returns the number of frames pinned. Deterministic (evenly
        spread) unless an ``rng`` is supplied.

        With ``scatter_movable`` (the realistic default), every frame
        *not* pinned also receives one movable 4KB page: a fragmented
        system has no pristine order-9 blocks on its freelists, only
        free space recoverable by compaction. This is what defeats
        Linux's fault-time THP allocation (which does not compact)
        while deliberate promotion paths (khugepaged, HawkEye, the PCC
        engine) still succeed at a compaction cost.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0,1], got {fraction}")
        target = int(round(self.total_frames * fraction))
        candidates = [
            i for i, f in enumerate(self._frames) if f.state is FrameState.FREE
        ]
        if rng is not None:
            rng.shuffle(candidates)
        pinned = 0
        for index in candidates:
            frame = self._frames[index]
            if pinned < target:
                frame.state = FrameState.PARTIAL
                frame.used_base_pages = 1
                frame.pinned_pages = 1
                pinned += 1
            elif scatter_movable and fraction > 0.0:
                frame.state = FrameState.PARTIAL
                frame.used_base_pages = 1
            else:
                continue
            self.stats.fragment_pages += 1
        return pinned

    # ------------------------------------------------------------------
    # allocation

    def allocate_base(self, count: int = 1) -> int:
        """Carve ``count`` 4KB pages out of partial/free frames.

        Returns an opaque frame token for the last page (tokens only
        matter for identity in page tables). Fills frames bump-style,
        which is how long-running systems densify low memory.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        token = -1
        for _ in range(count):
            frame_index = self._frame_for_base()
            frame = self._frames[frame_index]
            frame.state = FrameState.PARTIAL
            frame.used_base_pages += 1
            self.stats.base_allocations += 1
            token = frame_index * PAGES_PER_HUGE + frame.used_base_pages - 1
        return token

    def allocate_base_bulk(self, count: int) -> None:
        """Carve ``count`` 4KB pages in one pass over the frame list.

        Equivalent to ``count`` calls of :meth:`allocate_base` — the
        bump cursor visits the same frames in the same order and the
        counters advance identically (including on a mid-bulk
        :class:`OutOfMemoryError`, where pages carved so far stay
        counted) — but takes whole frame remainders at a time instead
        of one page per scan.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        remaining = count
        while remaining:
            frame = self._frames[self._frame_for_base()]
            frame.state = FrameState.PARTIAL
            take = min(PAGES_PER_HUGE - frame.used_base_pages, remaining)
            frame.used_base_pages += take
            self.stats.base_allocations += take
            remaining -= take

    def _frame_for_base(self) -> int:
        start = self._fill_cursor
        for offset in range(self.total_frames):
            index = (start + offset) % self.total_frames
            frame = self._frames[index]
            if frame.state is FrameState.PARTIAL and (
                frame.used_base_pages < PAGES_PER_HUGE
            ):
                self._fill_cursor = index
                return index
            if frame.state is FrameState.FREE:
                self._fill_cursor = index
                return index
        raise OutOfMemoryError("no 4KB page available")

    def allocate_huge(
        self, allow_compaction: bool = False, size: PageSize = PageSize.HUGE
    ) -> tuple[int, int]:
        """Claim the frames of one huge page of ``size``.

        A 2MB page takes one free frame; a 1GB page a 1GB-aligned run of
        512. Returns ``(first_frame, pages_migrated)``: with
        ``allow_compaction`` and no free run, the run whose pages are
        cheapest to migrate out is emptied first. A run holding a pinned
        page or a huge page never qualifies; when no run does, raises
        :class:`OutOfMemoryError`.
        """
        count = 1 << (size.value - HUGE_PAGE_SHIFT)
        frames = self._frames
        best, best_pages = None, -1
        for start in range(0, self.total_frames - count + 1, count):
            pages = 0
            for frame in frames[start:start + count]:
                if frame.state is FrameState.HUGE or frame.pinned_pages:
                    break
                pages += frame.used_base_pages
            else:
                if not pages:
                    best, best_pages = start, 0
                    break
                if best is None or pages < best_pages:
                    best, best_pages = start, pages
        migrated = 0
        if best_pages > 0:
            migrated = self._migrate_out(best, count) if allow_compaction else -1
        if best is None or migrated < 0:
            self.stats.huge_failures += 1
            raise OutOfMemoryError(f"no free {size.name} frame run available")
        for frame in frames[best:best + count]:
            frame.state = FrameState.HUGE
        self.stats.huge_allocations += 1
        return best, migrated

    def _migrate_out(self, start: int, count: int) -> int:
        """Empty frames ``[start, start+count)`` into other partial ones
        (pinned or not; a free frame would defeat compaction). Returns
        the pages moved, or -1 when the other frames lack the room."""
        run = range(start, start + count)
        frames = self._frames
        to_move = sum(frames[i].used_base_pages for i in run)
        targets = [
            f for i, f in enumerate(frames)
            if f.state is FrameState.PARTIAL and i not in run
        ]
        if sum(PAGES_PER_HUGE - f.used_base_pages for f in targets) < to_move:
            return -1
        remaining = to_move
        for frame in targets:
            moved = min(PAGES_PER_HUGE - frame.used_base_pages, remaining)
            frame.used_base_pages += moved
            remaining -= moved
        for frame in frames[start:start + count]:
            if frame.state is FrameState.PARTIAL:
                self.stats.compactions += 1
            frame.state = FrameState.FREE
            frame.used_base_pages = 0
        self.stats.pages_migrated += to_move
        return to_move

    def release_base_pages(self, count: int) -> int:
        """Return ``count`` carved 4KB pages to the allocator.

        Called when a region's base pages are collapsed into a freshly
        allocated huge frame (promotion copies the data out). Pages are
        released from the fullest unpinned partial frames first, which
        keeps the remaining allocation compactable. Returns the number
        actually released (bounded by live movable pages).
        """
        if count < 0:
            raise ValueError(f"count cannot be negative: {count}")
        remaining = count
        partials = sorted(
            (f for f in self._frames if f.state is FrameState.PARTIAL),
            key=lambda f: -f.movable_pages,
        )
        for frame in partials:
            if remaining == 0:
                break
            releasable = min(frame.movable_pages, remaining)
            frame.used_base_pages -= releasable
            remaining -= releasable
            if frame.used_base_pages == 0:
                frame.state = FrameState.FREE
        return count - remaining

    def free_huge(self, frame_index: int, as_base_pages: int = 0) -> None:
        """Release a huge frame (demotion or process exit).

        ``as_base_pages`` > 0 re-carves that many 4KB pages into the
        frame (demotion keeps the data resident as base pages).
        """
        frame = self._frames[frame_index]
        if frame.state is not FrameState.HUGE:
            raise ValueError(f"frame {frame_index} is not backing a huge page")
        self.stats.huge_frees += 1
        if as_base_pages > 0:
            if as_base_pages > PAGES_PER_HUGE:
                raise ValueError(
                    f"cannot carve {as_base_pages} pages into one 2MB frame"
                )
            frame.state = FrameState.PARTIAL
            frame.used_base_pages = as_base_pages
            frame.pinned_pages = 0
        else:
            frame.state = FrameState.FREE
            frame.used_base_pages = 0
            frame.pinned_pages = 0
