"""The staged machine pipeline behind the online simulation.

:class:`Machine` decomposes the former monolithic run loop into four
explicit, composable stages:

- :class:`ThreadScheduler` — round-robin over bound threads in fixed
  access quanta (the concurrency model of §5.2);
- :class:`TranslationPipeline` — the per-core TLB → walker → PCC path,
  fronted by a memoized translation fast path for repeated hits;
- :class:`FaultPath` — first-touch fault filtering into the kernel (so
  greedy THP acts at the right moment);
- :class:`OsTickDriver` — the periodic OS promotion interval, timeline
  bookkeeping, and per-interval metrics sampling.

:class:`~repro.engine.simulation.Simulator` remains the public facade;
it wires a Machine and delegates, so every experiment, benchmark, and
subclass (e.g. the offline replay's scheduled simulator) keeps working
unchanged.

The translation fast path
-------------------------

The hot loop's dominant cost is the Python object graph under
``TLBHierarchy.lookup`` — method dispatch, per-structure statistics,
and several frames of call overhead — paid even when an access
trivially hits the L1 TLB again. The pipeline answers L1 hits in two
tiers. Tier 1 is a memoized *MRU hint* per L1 set: the tag most
recently made most-recently-used in that set. An access whose VPN (or
2MB region tag) matches its set's hint is guaranteed to hit L1 **with
zero state change** — re-running the full path would delete and
reinsert the tag at the same MRU position — so the pipeline answers
from the memo with no dict traffic at all. Tier 2 probes the live L1
set dict directly, in the hierarchy's order (4K before 2M): on a hit
the real path's *entire* state change is the del/reinsert LRU refresh,
which the tier performs itself. Both tiers charge constant hit cycles
and batch the statistics; everything else (L2 hits, 1GB hits, walks)
takes the full path, which also refreshes the hints.

Exactness: tier 2 operates on the live TLB dicts, so only the tier-1
hints can go stale — and only through TLB mutation that bypasses the
access path (shootdowns, promotions/demotions, full flushes), all of
which happen inside the OS tick; the machine bumps the pipeline's
epoch counter after every tick, wholesale-invalidating the hints.
Evictions cannot invalidate a hint (victims are LRU, hints are MRU)
and fills/refills update the affected set's hint in the same step, so
the fast path is bit-identical to the slow path — the property tests
assert equal walks, hits, cycles, and promotions with the memo on and
off.

Under tree-PLRU replacement dict order no longer tracks recency, so
tier 2 probes the L1's tag->way map instead and performs the real
path's entire state change itself: one masked tree touch
(``plru.touch_masks``) plus the batched hit count. Tier 1 stays exact —
a hint match means the set's most recent probe touched this very tag,
so the tree already points away from its way and the skipped re-touch
is a no-op (PLRU touch is idempotent).

The columnar epoch tier
-----------------------

``columnar=True`` (the default, requiring the fast path it falls back
to) leaves the per-record loop behind: between TLB-mutating events
there is no reason to stop at quantum boundaries at all. In an
unobserved run (walk observers wrap the per-record translate binding
the epoch pass bypasses), the machine retires the **entire remaining
OS-tick interval** as one epoch per live thread:

1. *Window*: the epoch end comes from iterating the per-quantum
   ``searchsorted`` rule until the accumulated accesses cover the
   remaining promotion interval — exactly the records the scalar loop
   would run before its next due-check fires. With several live
   threads the same rule plans a full round-robin schedule
   (``Machine._multithread_epoch``): every round covers every live
   slot in scheduler order, and per-core epochs span the whole plan —
   sound because distinct cores' TLBs, walkers and PCCs never observe
   each other's records, faults replay in exact (round, slot) order,
   and the one cross-core coupling (page-table accessed bits) gets a
   merged per-process pass in scalar walk order.
2. *Fault pre-pass*: every first-touch fault in the window fires
   up-front, in first-occurrence order. This is exact because fault
   handling never touches TLBs and never sets accessed bits
   (``map_base``/``map_huge`` only install mappings), and it removes
   the one source of mid-epoch region-state change: after the
   pre-pass, every region in the window is stably 4K-backed,
   huge-backed, or 1GB-backed for the whole epoch. Base-backed
   kernels take the array-batched fault path (one allocator sweep +
   one bulk PTE install for the window's first-touch set).
3. *Classification*: each record is routed to the L1 structure its
   region's mapping state selects, and the structure's whole epoch
   touch stream is classified hit/miss in one exact vectorized LRU
   pass (:mod:`repro.engine.columnar`). Classified hits retire in
   bulk — counters and hit cycles are array reductions, no per-record
   Python.
4. *Residue*: the L1-miss stream is itself classified, not replayed
   (:mod:`repro.engine.residue`). The unified L2 and the 1GB L1 are
   two more whole-epoch LRU streams (4K records at their VPN,
   huge-backed ones at their region tag, 1GB-backed ones at their
   giga tag); the scalar lookup's silent probes are licensed as
   LRU-inert by a conservative alias pre-check, and windows the model
   cannot cover (aliasing, odd fill shapes, unmapped holes) replay
   through the quantum tiers bit-identically. Only classified L2/1GB
   misses walk: the walker's cost model and its page-walk caches are
   vectorized too (memo + per-level LRU classification), page-table
   accessed bits land in one compute-then-apply pass, and PCC
   admissions apply in one bulk call per structure at epoch end (the
   OS only reads the PCC at ticks, which an epoch never spans).
5. *Reconstruction*: every classified structure's set dicts — both
   L1s, the L2, the 1GB L1, and the PWCs — are rebuilt to their exact
   end-of-epoch contents (the W most recently touched distinct tags
   per set, LRU→MRU), evictions are counted from per-set fill counts
   against start-of-epoch occupancy, and the MRU hints are re-pointed
   at the rebuilt MRU entries — so every later tier, tick, and
   invariant check observes precisely the state record-at-a-time
   simulation would have left.

Epoch statistics land in the same pending counters the fast path
uses, so ``sync()`` remains the single flush point. An adaptive guard
hands a slot whose epochs classify under a quarter of their records
back to the quantum tiers and re-probes it periodically.
``columnar=False`` selects the quantum tiers unconditionally.

Under tree-PLRU the classifier's exact-LRU algebra does not apply, so a
single-thread PLRU epoch plans its window the same way, takes the fault
pre-pass (policy-blind: faults never touch TLBs), and replays the window
through the fast loop — the path a declined LRU window takes. Spans of
several threads run the quantum rounds under PLRU. Both count as
``columnar_plru_fallbacks``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.config import SystemConfig
from repro.core.dump import CandidateRecord, DumpRegion
from repro.engine import residue
from repro.engine.columnar import (
    classify_lru_hits,
    epoch_evictions,
)
from repro.engine.cpu import Core
from repro.engine.system import ProcessWorkload
from repro.engine.timing import CycleAccounting, RuntimeBreakdown
from repro.metrics import MetricsRegistry, publish_run
from repro.obs.observer import RunObserver
from repro.obs.progress import progress_for_run
from repro.obs.runid import current_run_id
from repro.obs.tracer import CORE_TID_BASE
from repro.obs.tracer import span as trace_span
from repro.os.kernel import HugePagePolicy, KernelParams, SimulatedKernel
from repro.tlb.hierarchy import HitLevel
from repro.vm.address import (
    BASE_PAGE_SHIFT,
    GIGA_PAGE_SHIFT,
    HUGE_PAGE_SHIFT,
    PageSize,
)

#: VPN -> 2MB region tag shift.
_HUGE_SHIFT = HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT
#: 2MB region tag -> 1GB region tag shift.
_GIGA_SHIFT = GIGA_PAGE_SHIFT - HUGE_PAGE_SHIFT
#: VPN -> 1GB region tag shift.
_GIGA_SHIFT_FULL = GIGA_PAGE_SHIFT - BASE_PAGE_SHIFT

# 2MB-region mapping states the epoch classifier routes records by:
# BASE regions probe the L1-4K, HUGE regions the L1-2M, OTHER (1GB-
# backed) regions the 1GB L1; an EMPTY region after the fault pre-pass
# is an unmapped hole. ``state - 1`` is the residue walk-size code.
_REGION_EMPTY = 0
_REGION_BASE = 1
_REGION_HUGE = 2
_REGION_OTHER = 3


def _region_mapping_state(page_table, tag: int) -> int:
    """Classify 2MB region ``tag``'s mapping for the epoch classifier."""
    if page_table.is_giga_promoted(tag >> _GIGA_SHIFT):
        return _REGION_OTHER
    if page_table.is_promoted(tag):
        return _REGION_HUGE
    if page_table.region_base_pages(tag):
        return _REGION_BASE
    return _REGION_EMPTY


def _initial_stack_arrays(initial: list[list[int]]):
    """Flatten per-set LRU stacks into (set, tag) arrays, LRU→MRU.

    The epoch classifier prepends these as synthetic older touches:
    within a set the stable group-sort keeps them in order before the
    epoch's real touches, which reproduces the structure's exact
    recency state at epoch start.
    """
    sets_out: list[int] = []
    tags_out: list[int] = []
    for set_index, content in enumerate(initial):
        if content:
            sets_out.extend([set_index] * len(content))
            tags_out.extend(content)
    return (
        np.asarray(sets_out, dtype=np.intp),
        np.asarray(tags_out, dtype=np.uint64),
    )


class _EpochContext:
    """Classification results for one epoch window, pre-commit.

    Produced read-only by ``TranslationPipeline._epoch_classify`` and
    consumed by ``_epoch_finish``; splitting the two lets multi-thread
    epochs interleave the page-table pass across cores between them.
    """

    __slots__ = (
        "start", "end", "length", "window_units", "hit_units",
        "res_units", "base_idx", "b_setw", "b_hits", "b_final", "n_bhit",
        "huge_idx", "h_setw", "h_hits", "h_final", "n_hhit",
        "res_counts", "l2_part_idx", "l2_kind_huge", "l2_tags",
        "l2_setw", "l2_hits", "l2_final", "other_idx", "g_setw",
        "g_hits", "g_final", "walk_vpns", "walk_sizes", "walk_repeats",
        "walk_ridx", "walk_plan", "walk_pud", "walk_pmd",
    )


class _ThreadSlot:
    """One schedulable thread: trace cursor plus pinned identities."""

    __slots__ = ("vpns", "counts", "cursor", "length", "pid", "core_id",
                 "seen", "fault", "bulk_fault", "live", "stream", "bsets",
                 "hsets", "region_tags", "seen_np", "columnar_off",
                 "columnar_probe")

    def __init__(self, vpns, counts, pid, core_id, seen, fault,
                 stream=None, bulk_fault=None):
        # Plain Python lists iterate several times faster than numpy
        # scalar indexing in this (unavoidably sequential) hot loop;
        # the epoch tier reads the columnar stream's arrays instead.
        self.vpns = vpns
        self.counts = counts
        self.cursor = 0
        self.length = len(vpns)
        self.pid = pid
        self.core_id = core_id
        self.seen = seen
        self.fault = fault
        # Array-batched fault handler (base-backed policies only); the
        # epoch fault pre-pass prefers it over per-fault calls.
        self.bulk_fault = bulk_fault
        self.live = True
        # Whole-stream columnar encoding (repro.engine.columnar): VPNs,
        # access prefix sums, region tags and the dense page/region
        # vocabularies the epoch tier gathers from. None off columnar.
        self.stream = stream
        # Conservative positive cache over the unique-page index: True
        # proves the page is in the process seen-set, False means "ask
        # the set" (threads of one process share the set, so another
        # slot may have seen the page first). Allocated on first epoch.
        self.seen_np = None
        # Adaptive columnar tier state: off for columnar_probe epochs
        # after a low-retirement epoch, then re-probed.
        self.columnar_off = False
        self.columnar_probe = 0
        # Per-core L1 set-index views and the region tags as Python
        # ints, attached by the owning pipeline on first epoch.
        self.bsets = None
        self.hsets = None
        self.region_tags: list[int] = []


class ThreadScheduler:
    """Round-robin scheduler slicing bound threads into access quanta.

    Threads are interleaved in fixed quanta of trace records whose
    access counts sum to roughly ``quantum``, modelling concurrent
    execution on the pinned cores.
    """

    def __init__(self, quantum: int) -> None:
        self.quantum = quantum
        self.slots: list[_ThreadSlot] = []
        self.remaining = 0

    def add(self, vpns, counts, pid, core_id, seen, fault, stream=None,
            bulk_fault=None) -> _ThreadSlot:
        """Register one thread's compressed trace for scheduling.

        ``stream`` (a :class:`~repro.engine.columnar.ColumnarStream`)
        supplies the whole-stream columns the epoch tier gathers from;
        ``bulk_fault`` (optional) is the kernel's array-batched fault
        entry point for this thread's process.
        """
        slot = _ThreadSlot(vpns, counts, pid, core_id, seen, fault,
                           stream=stream, bulk_fault=bulk_fault)
        self.slots.append(slot)
        self.remaining += slot.length
        return slot

    def next_round(self):
        """Yield each still-live slot once, retiring exhausted ones."""
        for slot in self.slots:
            if not slot.live:
                continue
            if slot.cursor >= slot.length:
                slot.live = False
                continue
            yield slot

    def advance(self, slot: _ThreadSlot, new_cursor: int) -> None:
        """Consume the records a quantum processed."""
        self.remaining -= new_cursor - slot.cursor
        slot.cursor = new_cursor


class TranslationPipeline:
    """Per-core translation stage: memo fast path over TLB→walker→PCC.

    Owns the per-set MRU hints described in the module docstring, the
    batched fast-hit counters (flushed into the canonical stats bags by
    :meth:`sync`), and the epoch counter that wholesale-invalidates the
    memo on shootdown/promotion/flush.
    """

    #: below this epoch window (records) the whole-epoch pass cannot
    #: amortize its setup; delegate the quantum to the fast tier
    MIN_EPOCH_RECORDS = 64
    #: epochs retiring under 1/4 of their records switch the slot back
    #: to the quantum tiers for this many epochs before re-probing
    COLUMNAR_PROBE_EPOCHS = 16

    def __init__(self, core: Core, fast_path: bool = True,
                 columnar: bool = False) -> None:
        self.core = core
        self.fast_path = fast_path
        # The columnar epoch tier classifies against the same live set
        # dicts and MRU hints the fast loop maintains, and falls back to
        # that loop between epochs, so fast_path=False wins and selects
        # the reference loop.
        self.columnar = columnar and fast_path
        #: bumped on every wholesale invalidation (OS tick shootdowns)
        self.epoch = 0
        l1_base = core.tlb.l1_base
        l1_huge = core.tlb.l1_huge
        self._base_sets = l1_base.sets
        self._huge_sets = l1_huge.sets
        self._nbase = l1_base.nsets
        self._nhuge = l1_huge.nsets
        #: per-set MRU hint tags; -1 is never a valid tag
        self._base_mru = [-1] * self._nbase
        self._huge_mru = [-1] * self._nhuge
        self._l1_hit_cycles = core.config.timing.l1_tlb_hit_cycles
        # Translate indirection for observability: normally the bound
        # method itself (identical cost to the old direct binding); an
        # observed run swaps in a recording wrapper, so non-observed
        # runs pay nothing per record.
        self._translate = core.translate
        # Batched fast-hit counters, flushed by sync().
        self._pending_base_records = 0
        self._pending_huge_records = 0
        self._pending_accesses = 0
        # Cumulative fast-path metrics (records, not raw accesses).
        self.fast_hits = 0
        self.slow_records = 0
        self.invalidations = 0
        # Columnar epoch tier counters: epochs run, records retired by
        # classification, records run through the live-residue loop,
        # adaptive fall-backs to the quantum tiers, and a power-of-two
        # histogram of epoch lengths in records (bucket k counts epochs
        # of 2^(k-1) < length <= 2^k - 1 ... i.e. bit_length() == k).
        self.columnar_epochs = 0
        self.columnar_retired = 0
        self.columnar_residue_records = 0
        self.columnar_fallbacks = 0
        self.columnar_epoch_buckets = [0] * 32
        # Residue breakdown: residue records retired by the vectorized
        # L2/1GB-L1 classification vs records that walked the live page
        # table, epochs retired as part of a multi-thread round plan,
        # and the fault pre-pass split (array-batched vs per-fault).
        self.columnar_l2_retired = 0
        self.columnar_live_walked = 0
        self.columnar_mt_epochs = 0
        self.columnar_faults_batched = 0
        self.columnar_faults_scalar = 0
        # PLRU epochs: the whole-epoch classifier is exact-LRU-specific,
        # so a tree-PLRU window runs as fault pre-pass plus fast-loop
        # replay (and a multi-thread PLRU span, counted once, declines to
        # the quantum rounds); bit-identical either way.
        self.columnar_plru_fallbacks = 0
        # Under PLRU dict order no longer tracks recency, so the fast
        # loop's tier 2 probes the tag->way maps and performs the masked
        # tree touch instead of the del/reinsert (see the module
        # docstring); these are the L1s' live PLRU views.
        self._plru = core.config.tlb.l1_base.replacement == "plru"
        if self._plru:
            self._base_plru = l1_base.plru_views()
            self._huge_plru = l1_huge.plru_views()
        #: the slot whose quantum most recently ran on this core
        self._active_slot = None

    # ------------------------------------------------------------------

    def run_quantum(self, slot: _ThreadSlot, budget: int, page_table) -> tuple:
        """Run one scheduling quantum of ``slot`` against this core.

        Returns ``(cursor, accesses, translation_cycles, walks)`` for
        the ledger and per-process attribution. Faults are taken on
        first touch, before the access translates.
        """
        self._active_slot = slot
        if self.fast_path:
            return self._run_quantum_fast(slot, budget, page_table)
        return self._run_quantum_slow(slot, budget, page_table)

    def _run_quantum_slow(self, slot: _ThreadSlot, budget: int, page_table):
        """Reference loop: every record takes the full TLB object graph."""
        vpns = slot.vpns
        counts = slot.counts
        i = slot.cursor
        n = slot.length
        seen = slot.seen
        fault = slot.fault
        is_mapped = page_table.is_mapped
        translate = self._translate
        miss_level = HitLevel.MISS
        start_budget = budget
        cycles = 0
        walks = 0
        while budget > 0 and i < n:
            vpn = vpns[i]
            repeat = counts[i]
            # Once a VPN has faulted in it stays mapped (promotion
            # preserves mapped-ness), so a per-process seen-set avoids
            # a page-table probe per record.
            if vpn not in seen:
                seen.add(vpn)
                vaddr = vpn << BASE_PAGE_SHIFT
                if not is_mapped(vaddr):
                    fault(vaddr)
            step_cycles, level, _size = translate(vpn, page_table, repeat)
            cycles += step_cycles
            if level is miss_level:
                walks += 1
            budget -= repeat
            i += 1
        self.slow_records += i - slot.cursor
        return i, start_budget - budget, cycles, walks

    def _run_quantum_fast(self, slot: _ThreadSlot, budget: int, page_table):
        """Memoized loop: L1 hits bypass the TLB object graph.

        Two tiers in front of the full path. Tier 1 is the per-set MRU
        memo: a hint match proves an L1 hit with zero state change, so
        not even the set dict is touched (this is why the memo must be
        epoch-invalidated when ticks mutate TLB state behind it — a
        stale hint would claim a shot-down entry still hits). Tier 2
        probes the live L1 set dict directly: on a hit the *entire*
        state change of the real path is the del/reinsert LRU refresh,
        which the tier performs itself, skipping the translate→lookup→
        hit_fast call stack and batching the statistics.

        Under PLRU the del/reinsert has no meaning (dict order is not
        recency), so tier 2 probes the L1's tag->way map and performs
        the masked tree touch the full path's lookup would, with the
        same batched hit count; one ``if`` per structure picks the
        policy. The same reasoning keeps both exact: a live-L1-hit
        record's vpn is provably in the seen-set (the entry was filled
        by a prior access to it) so the skipped fault check is a no-op,
        and a vpn resident in L1-4K excludes a covering L1-2M entry (one
        backing per region between shootdowns), so the 4K-first probe
        order matches the hierarchy's.

        Counter bookkeeping is hoisted out of the loop: accesses fall
        out of the budget delta, and fast-hit cycles are one multiply
        over the accumulated repeat counts.
        """
        vpns = slot.vpns
        counts = slot.counts
        i = slot.cursor
        n = slot.length
        seen = slot.seen
        fault = slot.fault
        is_mapped = page_table.is_mapped
        translate = self._translate
        base_mru = self._base_mru
        huge_mru = self._huge_mru
        base_sets = self._base_sets
        huge_sets = self._huge_sets
        nbase = self._nbase
        nhuge = self._nhuge
        plru = self._plru
        if plru:
            b_way_of, b_bits, b_keep, b_setm = self._base_plru
            h_way_of, h_bits, h_keep, h_setm = self._huge_plru
        miss_level = HitLevel.MISS
        size_base = PageSize.BASE
        size_huge = PageSize.HUGE
        start_budget = budget
        #: accesses answered by the fast tiers (repeat counts included)
        fast_units = 0
        cycles = 0
        walks = 0
        fast_base = 0
        fast_huge = 0
        slow = 0
        while budget > 0 and i < n:
            vpn = vpns[i]
            repeat = counts[i]
            base_set = vpn % nbase
            if base_mru[base_set] == vpn:
                # Tier 1: vpn is the MRU of its L1-4K set — guaranteed
                # hit, zero state change. (The hint implies a prior
                # access to vpn, so the seen-set already has it and the
                # fault check would be a no-op.)
                fast_base += 1
                fast_units += repeat
                budget -= repeat
                i += 1
                continue
            if plru:
                way = b_way_of[base_set].get(vpn)
                if way is not None:
                    # Tier 2 under PLRU: the real path's only state
                    # change is this masked tree touch.
                    b_bits[base_set] = (
                        (b_bits[base_set] & b_keep[way]) | b_setm[way]
                    )
                    base_mru[base_set] = vpn
                    fast_base += 1
                    fast_units += repeat
                    budget -= repeat
                    i += 1
                    continue
            else:
                entries = base_sets[base_set]
                size = entries.get(vpn)
                if size is not None:
                    # Tier 2: live L1-4K hit. The real path's only state
                    # change is this LRU refresh; a 4KB entry is filled
                    # by a prior access to this exact vpn, so the
                    # seen-set already has it.
                    del entries[vpn]
                    entries[vpn] = size
                    base_mru[base_set] = vpn
                    fast_base += 1
                    fast_units += repeat
                    budget -= repeat
                    i += 1
                    continue
            # Once a VPN has faulted in it stays mapped (promotion
            # preserves mapped-ness), so a per-process seen-set avoids
            # a page-table probe per record.
            if vpn not in seen:
                seen.add(vpn)
                vaddr = vpn << BASE_PAGE_SHIFT
                if not is_mapped(vaddr):
                    fault(vaddr)
            # The L1-4K probe above missed silently (the hierarchy only
            # counts a 4K miss after all L1 structures fail), matching
            # the real probe order: 4K first, then 2M.
            huge_tag = vpn >> _HUGE_SHIFT
            huge_set = huge_tag % nhuge
            if huge_mru[huge_set] == huge_tag:
                # Tier 1, 2MB: the covering entry is MRU of its set.
                fast_huge += 1
                fast_units += repeat
                budget -= repeat
                i += 1
                continue
            if plru:
                way = h_way_of[huge_set].get(huge_tag)
                if way is not None:
                    h_bits[huge_set] = (
                        (h_bits[huge_set] & h_keep[way]) | h_setm[way]
                    )
                    huge_mru[huge_set] = huge_tag
                    fast_huge += 1
                    fast_units += repeat
                    budget -= repeat
                    i += 1
                    continue
            else:
                hentries = huge_sets[huge_set]
                hsize = hentries.get(huge_tag)
                if hsize is not None:
                    # Tier 2, 2MB: live L1-2M hit with its LRU refresh.
                    del hentries[huge_tag]
                    hentries[huge_tag] = hsize
                    huge_mru[huge_set] = huge_tag
                    fast_huge += 1
                    fast_units += repeat
                    budget -= repeat
                    i += 1
                    continue
            slow += 1
            step_cycles, level, size = translate(vpn, page_table, repeat)
            cycles += step_cycles
            if level is miss_level:
                walks += 1
            # The access left its translation at the MRU position of
            # the structure matching ``size`` (hit-refresh or fill).
            if size is size_base:
                base_mru[base_set] = vpn
            elif size is size_huge:
                huge_mru[huge_set] = huge_tag
            budget -= repeat
            i += 1
        cycles += self._l1_hit_cycles * fast_units
        self._pending_base_records += fast_base
        self._pending_huge_records += fast_huge
        self._pending_accesses += fast_units
        self.fast_hits += fast_base + fast_huge
        self.slow_records += slow
        return i, start_budget - budget, cycles, walks

    def _attach_epoch_views(self, slot: _ThreadSlot) -> None:
        """Precompute this slot's per-core set-index views, once.

        Threads are statically pinned, so the L1 geometries are fixed
        per slot; the modulo stays in uint64 (a mixed uint64/int64
        operand would silently promote to float64) and the results are
        cast to an indexable integer type once.
        """
        stream = slot.stream
        slot.bsets = (stream.vpns % np.uint64(self._nbase)).astype(np.intp)
        slot.hsets = (stream.htags % np.uint64(self._nhuge)).astype(np.intp)
        slot.region_tags = stream.region_tags.tolist()

    # ------------------------------------------------------------------
    # the columnar epoch tier

    def run_epoch(self, slot: _ThreadSlot, budget: int, page_table,
                  interval_remaining: int) -> tuple:
        """Retire up to one whole OS-tick interval of ``slot`` at once.

        The caller (the machine's run loop, single-live-slot case only)
        passes the accesses remaining until the next promotion tick;
        the epoch window covers exactly the quanta the round loop would
        run before its due-check fires — iterating the per-quantum
        ``searchsorted`` rule, since the scalar loop checks ``due``
        after every quantum and the final quantum may overshoot the
        interval just like it may overshoot its budget. Returns the
        same ``(cursor, accesses, translation_cycles, walks)`` tuple as
        :meth:`run_quantum`; small or adaptively-disabled windows
        delegate one quantum to the fast tier, and tree-PLRU windows
        replay through it after the fault pre-pass.
        """
        if not self.columnar or slot.stream is None:
            return self.run_quantum(slot, budget, page_table)
        if slot.columnar_off:
            slot.columnar_probe -= 1
            if slot.columnar_probe > 0:
                return self.run_quantum(slot, budget, page_table)
            slot.columnar_off = False  # probe epoch: re-measure
        cum = slot.stream.cum
        start = slot.cursor
        n = slot.length
        end = start
        acc = 0
        while acc < interval_remaining and end < n:
            nxt = int(np.searchsorted(cum, cum[end] + budget, side="left"))
            if nxt > n:
                nxt = n
            if nxt <= end:  # pragma: no cover - counts are >= 1
                nxt = end + 1
            end = nxt
            acc = int(cum[end] - cum[start])
        if end - start < self.MIN_EPOCH_RECORDS:
            return self.run_quantum(slot, budget, page_table)
        if self._plru:
            # The whole-epoch classifier proves hits against exact-LRU
            # stack depths; no such closed form exists for tree-PLRU.
            # The window still takes the fault pre-pass (policy-blind:
            # faults never touch TLBs) and replays through the fast
            # loop, the exact path a declined LRU window takes.
            self.columnar_plru_fallbacks += 1
            self._epoch_faults(slot, start, end, page_table)
            return self._replay_window(slot, start, end, budget, page_table)
        if slot.bsets is None:
            self._attach_epoch_views(slot)
        return self._run_epoch_columnar(slot, start, end, budget, page_table)

    def _run_epoch_columnar(self, slot: _ThreadSlot, start: int, end: int,
                            budget: int, page_table) -> tuple:
        """One vectorized epoch pass over ``[start, end)``.

        Composes the phases the module docstring describes: the fault
        pre-pass (:meth:`_epoch_faults`), read-only classification of
        the window against every LRU structure in the machine
        (:meth:`_epoch_classify`), the page-table accessed-bit pass,
        and the commit (:meth:`_epoch_finish`). A window the classifier
        declines — L2 aliasing the model cannot license, a fill shape
        it does not cover, or an unmapped hole whose walk must raise
        the scalar path's error — replays through the quantum tiers
        instead (:meth:`_replay_window`), bit-identically either way.
        """
        self._epoch_faults(slot, start, end, page_table)
        ctx = self._epoch_classify(slot, start, end, page_table)
        if ctx is None:
            self.columnar_fallbacks += 1
            return self._replay_window(slot, start, end, budget, page_table)
        ctx.walk_pud, ctx.walk_pmd = residue.page_table_pass(
            page_table, ctx.walk_vpns, ctx.walk_sizes
        )
        return self._epoch_finish(slot, ctx)

    def _replay_window(self, slot: _ThreadSlot, start: int, end: int,
                       budget: int, page_table) -> tuple:
        """Replay a planned epoch window through the quantum tiers.

        ``run_quantum``'s budget rule (a record runs iff the accesses
        before it are under budget) is the epoch planner's searchsorted
        rule, so iterating it retires
        precisely ``[start, end)`` in the steps the scalar round loop
        would have taken (the planner stopped at the first quantum
        covering the remaining interval, so no tick fires inside the
        window). The cursor is restored before returning: the caller's
        single ``scheduler.advance`` call keeps the remaining-record
        accounting intact, exactly as after a classified epoch.
        """
        accesses = 0
        cycles = 0
        walks = 0
        cursor = start
        while cursor < end:
            slot.cursor = cursor
            cursor, acc, cyc, wlk = self.run_quantum(slot, budget,
                                                     page_table)
            accesses += acc
            cycles += cyc
            walks += wlk
        slot.cursor = start
        return cursor, accesses, cycles, walks

    def _epoch_faults(self, slot: _ThreadSlot, start: int, end: int,
                      page_table) -> None:
        """Phase A: the window's first-touch faults, up front.

        Exact because fault handling never touches TLBs or accessed
        bits; afterwards every region in the window has a stable
        mapping state for the whole epoch. Base-backed kernels take the
        array-batched path — one allocator sweep plus one bulk PTE
        install for the whole first-touch set — while huge-mapping
        policies keep per-fault calls (a fault there may promote a
        region, which interacts with allocator state order-sensitively).
        """
        if slot.seen_np is None:
            slot.seen_np = np.zeros(slot.stream.page_tags.size, dtype=bool)
        seen_np = slot.seen_np
        pr_w = slot.stream.page_ridx[start:end]
        uq_pages, first_pos = np.unique(pr_w, return_index=True)
        unseen = ~seen_np[uq_pages]
        if not unseen.any():
            return
        cand = uq_pages[unseen]
        order = np.argsort(first_pos[unseen], kind="stable")
        seen = slot.seen
        is_mapped = page_table.is_mapped
        page_tags = slot.stream.page_tags
        bulk = slot.bulk_fault
        if bulk is not None:
            vaddrs: list[int] = []
            append = vaddrs.append
            for k in order.tolist():
                vpn = int(page_tags[cand[k]])
                if vpn not in seen:
                    seen.add(vpn)
                    vaddr = vpn << BASE_PAGE_SHIFT
                    if not is_mapped(vaddr):
                        append(vaddr)
            if vaddrs:
                bulk(vaddrs)
                self.columnar_faults_batched += len(vaddrs)
        else:
            fault = slot.fault
            for k in order.tolist():
                vpn = int(page_tags[cand[k]])
                if vpn not in seen:
                    seen.add(vpn)
                    vaddr = vpn << BASE_PAGE_SHIFT
                    if not is_mapped(vaddr):
                        fault(vaddr)
                        self.columnar_faults_scalar += 1
        seen_np[cand] = True

    def _epoch_classify(self, slot: _ThreadSlot, start: int, end: int,
                        page_table):
        """Phases B–C plus residue planning, all read-only.

        Region states, L1-4K/L1-2M classification, then the residue
        pipeline: the unified L2 and the 1GB L1 as two more classified
        LRU streams, the live-walk subset, and the vectorized walker
        cost plan. Mutates nothing; returns an :class:`_EpochContext`,
        or None when the window must replay through the quantum tiers.

        The residue identities mirror the scalar probe sequence
        (``TLBHierarchy.lookup`` → walker → fill): a 4K-backed record
        probes/fills the L2 at its VPN; a huge-backed record at its
        region tag when the L2 serves 2MB entries (else it walks); a
        1GB-backed record probes the 1GB L1 (hit refresh or post-walk
        fill — outcome-independent, so one classification pass is
        exact). The silent L2 probes the scalar lookup also performs
        (a 4K VPN for a huge/1GB-backed record, a 2MB tag for a
        4K/1GB-backed one) are guaranteed misses — LRU-inert — exactly
        when :func:`residue.l2_alias_conflict` clears the window.
        """
        # ---- phase B: post-fault region states for the window.
        stream = slot.stream
        rr_w = stream.region_ridx[start:end]
        uqr = np.unique(rr_w)
        region_tags = slot.region_tags
        st = np.empty(uqr.size, dtype=np.int8)
        for k, ridx in enumerate(uqr.tolist()):
            st[k] = _region_mapping_state(page_table, region_tags[ridx])
        if (st == _REGION_EMPTY).any():
            # An unmapped hole: its walk must raise the scalar path's
            # PageTableError at the exact access, so replay the window.
            return None
        rec_state = st[np.searchsorted(uqr, rr_w)]

        # ---- phase C: exact LRU classification per suppressed L1.
        core = self.core
        tlbH = core.tlb
        cum = stream.cum
        vpns_w = stream.vpns[start:end]
        counts_w = cum[start + 1:end + 1] - cum[start:end]
        length = end - start
        base_sets_d = self._base_sets
        huge_sets_d = self._huge_sets
        nbase = self._nbase
        nhuge = self._nhuge
        ways_b = tlbH.l1_base.config.ways
        ways_h = tlbH.l1_huge.config.ways
        base_idx = np.flatnonzero(rec_state == _REGION_BASE)
        huge_idx = np.flatnonzero(rec_state == _REGION_HUGE)
        hit_mask = np.zeros(length, dtype=bool)
        n_bhit = n_hhit = 0
        b_setw = b_hits = None
        h_setw = h_hits = None
        init_b = [list(entries) for entries in base_sets_d]
        init_h = [list(entries) for entries in huge_sets_d]
        b_final = h_final = None
        if base_idx.size:
            b_tags = vpns_w[base_idx]
            b_setw = slot.bsets[start:end][base_idx]
            ib_sets, ib_tags = _initial_stack_arrays(init_b)
            b_hits, _, b_final = classify_lru_hits(
                b_setw, b_tags, ways_b, ib_sets, ib_tags, nsets=nbase
            )
            hit_mask[base_idx[b_hits]] = True
            n_bhit = int(np.count_nonzero(b_hits))
        if huge_idx.size:
            h_tags = stream.htags[start:end][huge_idx]
            h_setw = slot.hsets[start:end][huge_idx]
            ih_sets, ih_tags = _initial_stack_arrays(init_h)
            h_hits, _, h_final = classify_lru_hits(
                h_setw, h_tags, ways_h, ih_sets, ih_tags, nsets=nhuge
            )
            hit_mask[huge_idx[h_hits]] = True
            n_hhit = int(np.count_nonzero(h_hits))
        window_units = int(cum[end] - cum[start])
        hit_units = int(counts_w[hit_mask].sum())
        res_idx = np.flatnonzero(~hit_mask)

        # ---- the residue as three more classified streams.
        res_vpns = vpns_w[res_idx]
        res_counts = counts_w[res_idx]
        res_states = rec_state[res_idx]
        is_base = res_states == _REGION_BASE
        is_huge = res_states == _REGION_HUGE
        is_other = ~(is_base | is_huge)
        plan = tlbH._fill_plan
        serves_huge = plan[PageSize.HUGE][2] is not None
        if is_base.any() and plan[PageSize.BASE][2] is None:
            # 4K-backed residue would probe the L2 without ever filling
            # it; the classifier models every miss as a fill.
            return None
        if is_other.any() and plan[PageSize.GIGA][2] is not None:
            # 1GB walks would fill the L2 conditionally on the 1GB-L1
            # outcome, a shape the one-pass model does not cover.
            return None
        resident = np.fromiter(
            (tag for entries in tlbH._l2_sets for tag in entries),
            np.uint64,
        )
        base_vpns = res_vpns[is_base]
        huge_vpns = res_vpns[is_huge]
        other_vpns = res_vpns[is_other]
        if residue.l2_alias_conflict(resident, base_vpns, huge_vpns,
                                     other_vpns, serves_huge):
            return None

        # Unified L2 stream: 4K records at their VPN, huge-backed ones
        # (when served) at their region tag, merged in program order.
        l2_part_idx = (np.flatnonzero(is_base | is_huge) if serves_huge
                       else np.flatnonzero(is_base))
        l2_kind_huge = l2_tags = l2_setw = l2_hits = l2_final = None
        if l2_part_idx.size:
            l2_kind_huge = is_huge[l2_part_idx]
            sel = res_vpns[l2_part_idx]
            l2_tags = np.where(
                l2_kind_huge, sel >> np.uint64(_HUGE_SHIFT), sel
            )
            l2_n = tlbH._l2_n
            l2_setw = (l2_tags % np.uint64(l2_n)).astype(np.intp)
            init_l2 = [list(entries) for entries in tlbH._l2_sets]
            il_sets, il_tags = _initial_stack_arrays(init_l2)
            l2_hits, _, l2_final = classify_lru_hits(
                l2_setw, l2_tags, tlbH.l2.config.ways, il_sets, il_tags,
                nsets=l2_n,
            )

        # 1GB L1 stream: every 1GB-backed record touches it.
        other_idx = np.flatnonzero(is_other)
        g_setw = g_hits = g_final = None
        if other_idx.size:
            g_tags = other_vpns >> np.uint64(_GIGA_SHIFT_FULL)
            g_n = tlbH._g_n
            g_setw = (g_tags % np.uint64(g_n)).astype(np.intp)
            init_g = [list(entries) for entries in tlbH._g_sets]
            ig_sets, ig_tags = _initial_stack_arrays(init_g)
            g_hits, _, g_final = classify_lru_hits(
                g_setw, g_tags, tlbH.l1_giga.config.ways, ig_sets,
                ig_tags, nsets=g_n,
            )

        # Live-walk subset, program order: classified L2 misses,
        # huge-backed records the L2 cannot serve, 1GB-L1 misses.
        walk_mask = np.zeros(res_idx.size, dtype=bool)
        if l2_part_idx.size:
            walk_mask[l2_part_idx[~l2_hits]] = True
        if not serves_huge:
            walk_mask[is_huge] = True
        if other_idx.size:
            walk_mask[other_idx[~g_hits]] = True
        walk_idx = np.flatnonzero(walk_mask)

        ctx = _EpochContext()
        ctx.start = start
        ctx.end = end
        ctx.length = length
        ctx.window_units = window_units
        ctx.hit_units = hit_units
        ctx.res_units = window_units - hit_units
        ctx.base_idx = base_idx
        ctx.b_setw = b_setw
        ctx.b_hits = b_hits
        ctx.b_final = b_final
        ctx.n_bhit = n_bhit
        ctx.huge_idx = huge_idx
        ctx.h_setw = h_setw
        ctx.h_hits = h_hits
        ctx.h_final = h_final
        ctx.n_hhit = n_hhit
        ctx.res_counts = res_counts
        ctx.l2_part_idx = l2_part_idx
        ctx.l2_kind_huge = l2_kind_huge
        ctx.l2_tags = l2_tags
        ctx.l2_setw = l2_setw
        ctx.l2_hits = l2_hits
        ctx.l2_final = l2_final
        ctx.other_idx = other_idx
        ctx.g_setw = g_setw
        ctx.g_hits = g_hits
        ctx.g_final = g_final
        ctx.walk_vpns = res_vpns[walk_idx]
        ctx.walk_sizes = (res_states[walk_idx] - 1).astype(np.int8)
        ctx.walk_repeats = res_counts[walk_idx]
        ctx.walk_ridx = res_idx[walk_idx] + start
        ctx.walk_plan = residue.plan_walks(
            core.walker, ctx.walk_vpns, ctx.walk_sizes
        )
        ctx.walk_pud = None
        ctx.walk_pmd = None
        return ctx

    def _epoch_finish(self, slot: _ThreadSlot, ctx: _EpochContext) -> tuple:
        """Commit a classified epoch: stats, PCCs, reconstructions.

        Everything the old live-residue loop mutated record-at-a-time
        lands here as array reductions and end-state rebuilds. Counting
        identities, from the scalar probe sequence: every residue
        record is exactly one of an L2 hit, a 1GB-L1 hit, or a live
        walk; only 1GB-L1 hits are L1 hits (and skip the L2 counters);
        repeats after a record's first access always hit L1 (the first
        access left its translation at MRU).
        """
        core = self.core
        tlbH = core.tlb
        plan = tlbH._fill_plan
        entry_base = plan[PageSize.BASE][3]
        entry_huge = plan[PageSize.HUGE][3]
        entry_giga = plan[PageSize.GIGA][3]
        l1_cyc = core._l1_hit_cycles
        l2_cyc = core._l2_hit_cycles
        res_counts = ctx.res_counts
        n_res = int(res_counts.size)

        n_l2hit = l2hit_units = 0
        if ctx.l2_part_idx.size:
            hit_rows = ctx.l2_part_idx[ctx.l2_hits]
            n_l2hit = int(hit_rows.size)
            l2hit_units = int(res_counts[hit_rows].sum())
        n_ghit = ghit_units = 0
        if ctx.other_idx.size:
            g_rows = ctx.other_idx[ctx.g_hits]
            n_ghit = int(g_rows.size)
            ghit_units = int(res_counts[g_rows].sum())
        walk_repeats = ctx.walk_repeats
        n_walks = int(walk_repeats.size)
        if n_walks:
            walk_units = int(walk_repeats.sum())
            tcyc_d = int(
                (ctx.walk_plan.cycles + l1_cyc * (walk_repeats - 1)).sum()
            )
        else:
            walk_units = 0
            tcyc_d = 0
        cycles = (
            l1_cyc * ctx.hit_units
            + n_l2hit * l2_cyc
            + l1_cyc * (l2hit_units - n_l2hit)
            + l1_cyc * ghit_units
            + tcyc_d
        )
        l1h_d = (l2hit_units - n_l2hit) + ghit_units + (walk_units - n_walks)

        # Deferred PCC admissions, in walk order, one bulk apply per
        # structure (nothing reads a PCC mid-epoch; the 2MB and 1GB
        # PCCs are independent and per-structure order is preserved).
        if n_walks:
            walk_pud = ctx.walk_pud
            walk_sizes = ctx.walk_sizes
            promoted = walk_sizes != residue.SIZE_BASE
            pmd_rows = ctx.walk_pmd & (walk_sizes != residue.SIZE_GIGA)
            n_pmd = int(np.count_nonzero(pmd_rows))
            if n_pmd:
                core.pcc.access_many(list(zip(
                    (ctx.walk_vpns[pmd_rows]
                     >> np.uint64(_HUGE_SHIFT)).tolist(),
                    promoted[pmd_rows].tolist(),
                )))
            n_pud = int(np.count_nonzero(walk_pud))
            if n_pud and core._pcc_1gb_access is not None:
                core.pcc_1gb.access_many(list(zip(
                    (ctx.walk_vpns[walk_pud]
                     >> np.uint64(_GIGA_SHIFT_FULL)).tolist(),
                    promoted[walk_pud].tolist(),
                )))
            residue.apply_walk_plan(core.walker, ctx.walk_plan,
                                    pud_candidates=n_pud,
                                    pmd_candidates=n_pmd)

        # ---- phase E: reconstruct every classified structure. No live
        # code touched their dicts, so occupancy still reads as of
        # epoch start; every classified miss fills exactly one entry,
        # and the final content of a W-way LRU set is the last W
        # distinct tags by last touch.
        if ctx.base_idx.size:
            base_sets_d = self._base_sets
            nbase = self._nbase
            occ0 = np.fromiter(
                (len(entries) for entries in base_sets_d), np.int64, nbase
            )
            tlbH.l1_base.stats.evictions += epoch_evictions(
                ctx.b_setw[~ctx.b_hits], nbase,
                tlbH.l1_base.config.ways, occ0
            )
            base_mru = self._base_mru
            for s, content in enumerate(ctx.b_final):
                entries = base_sets_d[s]
                entries.clear()
                for tag in content:
                    entries[tag] = entry_base
                base_mru[s] = content[-1] if content else -1
        if ctx.huge_idx.size:
            huge_sets_d = self._huge_sets
            nhuge = self._nhuge
            occ0 = np.fromiter(
                (len(entries) for entries in huge_sets_d), np.int64, nhuge
            )
            tlbH.l1_huge.stats.evictions += epoch_evictions(
                ctx.h_setw[~ctx.h_hits], nhuge,
                tlbH.l1_huge.config.ways, occ0
            )
            huge_mru = self._huge_mru
            for s, content in enumerate(ctx.h_final):
                entries = huge_sets_d[s]
                entries.clear()
                for tag in content:
                    entries[tag] = entry_huge
                huge_mru[s] = content[-1] if content else -1
        if ctx.l2_part_idx.size:
            l2_sets_d = tlbH._l2_sets
            l2_n = tlbH._l2_n
            occ0 = np.fromiter(
                (len(entries) for entries in l2_sets_d), np.int64, l2_n
            )
            tlbH.l2.stats.evictions += epoch_evictions(
                ctx.l2_setw[~ctx.l2_hits], l2_n, tlbH.l2.config.ways, occ0
            )
            # Entry values: a hit keeps the stored value, a fill stores
            # the filling size's entry — replay the fill history over
            # the initial values, then rebuild from the final contents.
            value_of = {}
            for entries in l2_sets_d:
                value_of.update(entries)
            miss = ~ctx.l2_hits
            for tag, kind in zip(ctx.l2_tags[miss].tolist(),
                                 ctx.l2_kind_huge[miss].tolist()):
                value_of[tag] = entry_huge if kind else entry_base
            for s, content in enumerate(ctx.l2_final):
                entries = l2_sets_d[s]
                entries.clear()
                for tag in content:
                    entries[tag] = value_of[tag]
        if ctx.other_idx.size:
            g_sets_d = tlbH._g_sets
            g_n = tlbH._g_n
            occ0 = np.fromiter(
                (len(entries) for entries in g_sets_d), np.int64, g_n
            )
            tlbH.l1_giga.stats.evictions += epoch_evictions(
                ctx.g_setw[~ctx.g_hits], g_n, tlbH.l1_giga.config.ways,
                occ0
            )
            for s, content in enumerate(ctx.g_final):
                entries = g_sets_d[s]
                entries.clear()
                for tag in content:
                    entries[tag] = entry_giga

        # ---- statistics flush. Classified L1 hits ride the pending
        # counters (sync() stays the single flush point); residue
        # counters land directly, exactly as the live calls would have.
        self._pending_base_records += ctx.n_bhit
        self._pending_huge_records += ctx.n_hhit
        self._pending_accesses += ctx.hit_units
        tlbH.accesses += n_res
        tlbH._b_stats.misses += n_res - n_ghit
        tlbH._g_stats.hits += n_ghit
        tlbH._l2_stats.hits += n_l2hit
        tlbH._l2_stats.misses += n_walks
        stats = core.stats
        stats.accesses += ctx.res_units
        stats.l1_hits += l1h_d
        stats.l2_hits += n_l2hit
        stats.walks += n_walks
        stats.translation_cycles += tcyc_d
        self.columnar_epochs += 1
        retired = ctx.n_bhit + ctx.n_hhit
        self.columnar_retired += retired
        self.columnar_residue_records += n_res
        self.columnar_l2_retired += n_l2hit + n_ghit
        self.columnar_live_walked += n_walks
        self.columnar_epoch_buckets[min(ctx.length.bit_length(), 31)] += 1
        # Adaptive guard: an epoch that classifies almost nothing pays
        # several vector passes for little retirement; hand the slot
        # back to the quantum tiers for a while (bit-identical either
        # way). Vectorized L2/1GB retirements count as classified work.
        if (retired + n_l2hit + n_ghit) * 4 < ctx.length:
            slot.columnar_off = True
            slot.columnar_probe = self.COLUMNAR_PROBE_EPOCHS
            self.columnar_fallbacks += 1
        return ctx.end, ctx.window_units, cycles, n_walks

    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Flush batched fast-hit counters into the canonical stats.

        Called before every OS tick and before result collection, so
        ``CoreStats``/``TLBStats`` always read exactly as they would
        with the fast path disabled.
        """
        base_records = self._pending_base_records
        huge_records = self._pending_huge_records
        accesses = self._pending_accesses
        if not (base_records or huge_records):
            return
        tlb = self.core.tlb
        tlb.accesses += base_records + huge_records
        tlb.l1_base.stats.hits += base_records
        tlb.l1_huge.stats.hits += huge_records
        stats = self.core.stats
        stats.accesses += accesses
        stats.l1_hits += accesses
        self._pending_base_records = 0
        self._pending_huge_records = 0
        self._pending_accesses = 0

    def invalidate_hints(self) -> None:
        """Wholesale memo invalidation (epoch bump).

        The OS tick's shootdowns, promotions, demotions, and flushes
        mutate TLB state behind the pipeline's back; dropping every
        hint restores the guarantee that a hint match implies a
        state-change-free L1 hit.
        """
        self.epoch += 1
        self.invalidations += 1
        self._base_mru = [-1] * self._nbase
        self._huge_mru = [-1] * self._nhuge

    def as_metrics(self, prefix: str) -> dict[str, int]:
        """Fast-path counter readings for the metrics registry."""
        values = {
            f"{prefix}.fast_hits": self.fast_hits,
            f"{prefix}.slow_records": self.slow_records,
            f"{prefix}.invalidations": self.invalidations,
            f"{prefix}.columnar_epochs": self.columnar_epochs,
            f"{prefix}.columnar_retired": self.columnar_retired,
            f"{prefix}.columnar_residue_records":
                self.columnar_residue_records,
            f"{prefix}.columnar_fallbacks": self.columnar_fallbacks,
            f"{prefix}.columnar_l2_retired": self.columnar_l2_retired,
            f"{prefix}.columnar_live_walked": self.columnar_live_walked,
            f"{prefix}.columnar_mt_epochs": self.columnar_mt_epochs,
            f"{prefix}.columnar_faults_batched":
                self.columnar_faults_batched,
            f"{prefix}.columnar_faults_scalar":
                self.columnar_faults_scalar,
            f"{prefix}.columnar_plru_fallbacks":
                self.columnar_plru_fallbacks,
        }
        # Epoch-length histogram: power-of-two buckets, emitted sparsely
        # (bucket k holds epochs whose record count has bit_length k).
        for k, count in enumerate(self.columnar_epoch_buckets):
            if count:
                values[f"{prefix}.columnar_epoch_p2_{k:02d}"] = count
        return values


class FaultPath:
    """First-touch fault stage: per-process seen-sets into the kernel."""

    def __init__(self, kernel: SimulatedKernel) -> None:
        self.kernel = kernel
        self._seen: dict[int, set[int]] = {}

    def seen_for(self, pid: int) -> set[int]:
        """The VPNs process ``pid`` has already touched (shared across
        its threads — one address space, one fault per page)."""
        return self._seen.setdefault(pid, set())

    def handler_for(self, pid: int):
        """A ``fault(vaddr)`` callable bound to ``pid``."""
        handle_fault = self.kernel.handle_fault

        def fault(vaddr: int, _pid: int = pid) -> None:
            handle_fault(_pid, vaddr)

        return fault

    def bulk_handler_for(self, pid: int):
        """A ``bulk_fault(vaddrs)`` callable bound to ``pid``, or None.

        Only offered when the kernel's fault path is base-backed
        regardless of VMA state (:attr:`SimulatedKernel.
        supports_bulk_faults`), which is what makes one array pass
        equivalent to per-fault calls.
        """
        if not self.kernel.supports_bulk_faults:
            return None
        handle_bulk = self.kernel.handle_faults_bulk

        def bulk_fault(vaddrs: list, _pid: int = pid) -> None:
            handle_bulk(_pid, vaddrs)

        return bulk_fault


class OsTickDriver:
    """The periodic OS promotion interval (the paper's 30s analogue).

    Counts accesses toward the interval, fires the tick function at
    round boundaries, accumulates promotion/demotion totals and the
    per-interval timelines, and samples the metrics registry at every
    tick so samples align 1:1 with ``promotion_timeline``.
    """

    def __init__(
        self,
        kernel: SimulatedKernel,
        interval: int,
        tick_fn,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.kernel = kernel
        self.interval = interval
        self._tick_fn = tick_fn
        self.registry = registry
        self.accesses_since_tick = 0
        self.total_accesses = 0
        self.promotions = 0
        self.demotions = 0
        self.promotion_timeline: list[tuple[int, int]] = []
        self.huge_page_timeline: list[dict[int, int]] = []

    def note(self, accesses: int) -> None:
        """Account a quantum's accesses toward the interval."""
        self.accesses_since_tick += accesses
        self.total_accesses += accesses

    @property
    def due(self) -> bool:
        """Whether the interval has elapsed since the last tick."""
        return self.accesses_since_tick >= self.interval

    def tick(self, cores, ledgers):
        """Fire one promotion interval and record its outcome."""
        self.accesses_since_tick = 0
        outcome = self._tick_fn(cores, ledgers)
        self.promotions += len(outcome.promoted)
        self.demotions += len(outcome.demoted)
        self._record(len(outcome.promoted))
        return outcome

    def final_tick(self, cores, ledgers):
        """Trailing tick so short runs don't lose pending candidates."""
        outcome = self._tick_fn(cores, ledgers)
        self.promotions += len(outcome.promoted)
        self.demotions += len(outcome.demoted)
        if outcome.promoted or not self.huge_page_timeline:
            self._record(len(outcome.promoted))
        return outcome

    def _record(self, promoted: int) -> None:
        self.promotion_timeline.append((self.total_accesses, promoted))
        self.huge_page_timeline.append(
            {
                pid: self.kernel.huge_pages_of(pid)
                for pid in self.kernel.processes
            }
        )
        if self.registry is not None:
            self.registry.sample(self.total_accesses)


class Machine:
    """One simulated machine: scheduler, pipelines, fault path, ticks.

    The composition root of the engine. The optional ``tick_fn`` lets a
    facade (or subclass of it) intercept promotion ticks — the offline
    replay pipeline substitutes recorded candidate schedules this way —
    while :meth:`promotion_tick` remains the canonical implementation.
    """

    def __init__(
        self,
        config: SystemConfig,
        policy: HugePagePolicy = HugePagePolicy.PCC,
        params: KernelParams | None = None,
        fragmentation: float = 0.0,
        thread_quantum: int = 2048,
        serialization_cycles_per_access: float = 0.0,
        fast_path: bool = True,
        columnar: bool = True,
        tick_fn=None,
        validate: bool = False,
        observe: bool | None = None,
    ) -> None:
        self.config = config
        self.policy = policy
        # Runtime invariant checking (repro.validation.invariants). The
        # monitor is built lazily in run(); when off, the only cost on
        # the run loop is a few `is not None` tests per OS tick.
        self.validate = validate
        self.monitor = None
        # Observability (repro.obs). None = auto: observe iff a tracer
        # is active or REPRO_OBS requests it. False is the hard-off used
        # by perf A/B runs; True forces histograms even without either.
        self.observe = observe
        self.obs: RunObserver | None = None
        self.kernel = SimulatedKernel(
            config, policy=policy, params=params, fragmentation=fragmentation
        )
        self.thread_quantum = thread_quantum
        self.serialization_cycles_per_access = serialization_cycles_per_access
        self.fast_path = fast_path
        self.columnar = columnar and fast_path
        self.dump_region = DumpRegion()
        self._tick_fn = tick_fn or self.promotion_tick
        self.cores: list[Core] = []
        self.pipelines: list[TranslationPipeline] = []
        self.ledgers: list[CycleAccounting] = []
        self._core_pid_map: dict[int, int] = {}

    # ------------------------------------------------------------------

    def run(self, workloads: list[ProcessWorkload]):
        """Simulate the workloads to completion and return the result."""
        from repro.engine.simulation import SimulationResult

        self._assign_ids(workloads)
        shared_pcc = None
        if self.config.pcc.shared:
            if len(workloads) > 1:
                raise ValueError(
                    "the shared-PCC design (§3.2.2) cannot attribute "
                    "candidates across processes; use per-core PCCs"
                )
            from repro.core.pcc import PromotionCandidateCache

            shared_pcc = PromotionCandidateCache(self.config.pcc)
        self.cores = [
            Core(self.config, core_id=i, shared_pcc=shared_pcc)
            for i in range(self.config.cores)
        ]
        self.pipelines = [
            TranslationPipeline(core, fast_path=self.fast_path,
                                columnar=self.columnar)
            for core in self.cores
        ]
        self.ledgers = [CycleAccounting(self.config.timing) for _ in self.cores]

        monitor = None
        if self.validate:
            from repro.validation.invariants import InvariantMonitor

            monitor = InvariantMonitor(self)
        self.monitor = monitor

        fault_path = FaultPath(self.kernel)
        with trace_span("machine.bind_threads", cat="engine"):
            scheduler = self._bind_threads(workloads, fault_path)
        registry = MetricsRegistry()
        self._register_metrics(registry)
        ticks = OsTickDriver(
            self.kernel,
            self.config.os.promote_every_accesses,
            self._tick_fn,
            registry=registry,
        )
        # Retained for post-run inspection (the validation harness
        # audits final tick accounting against kernel state).
        self.ticks = ticks

        # One observability decision per run; every hook site below
        # guards on `obs`/`tracer` being non-None, so a non-observed
        # run pays a couple of branches per quantum/tick and nothing
        # per record (see _attach_walk_observers for the per-walk hook).
        obs = RunObserver.for_run(self.observe, registry)
        self.obs = obs
        tracer = obs.tracer if obs is not None else None
        if obs is not None:
            self._attach_walk_observers(obs, ticks)

        kernel = self.kernel
        processes = kernel.processes
        pipelines = self.pipelines
        ledgers = self.ledgers
        quantum = self.thread_quantum
        drain_fault_work = kernel.drain_fault_work
        walks_by_pid = {pid: 0 for pid in processes}

        # The columnar epoch tier needs the translate binding untouched:
        # observed runs wrap it per record (walk histograms, promotion
        # lag), which the epoch pass legitimately bypasses, so an
        # observed run keeps the quantum tiers.
        use_columnar = self.columnar and obs is None

        # One progress decision per run, independent of the observer:
        # riding the observe path would demote the run off the columnar
        # tier, and progress only *reads* counters, so reported runs
        # stay bit-identical to silent ones. When enabled the loop pays
        # one clock check per scheduler round; when disabled, one
        # ``is None`` branch.
        prog = progress_for_run(total=scheduler.remaining)
        prog_total = scheduler.remaining
        prog_tier = (
            "columnar" if use_columnar
            else "fast" if self.fast_path
            else "scalar"
        )

        def report_progress(final: bool = False) -> None:
            prog.emit(
                done=prog_total - scheduler.remaining,
                accesses=ticks.total_accesses,
                ticks=len(ticks.promotion_timeline),
                promotions=ticks.promotions,
                epochs=sum(p.columnar_epochs for p in pipelines),
                tier=prog_tier,
                final=final,
            )

        with trace_span("machine.sim_loop", cat="engine",
                        policy=self.policy.value, cores=len(self.cores)):
            while scheduler.remaining > 0:
                if prog is not None and prog.due():
                    report_progress()
                if use_columnar:
                    live = [
                        slot for slot in scheduler.slots
                        if slot.live and slot.cursor < slot.length
                    ]
                    if len(live) == 1:
                        # Single runnable thread: between here and the
                        # next TLB-mutating event (the tick below) no
                        # quantum switch can interleave, so the whole
                        # remaining interval retires as one epoch.
                        slot = live[0]
                        pipeline = pipelines[slot.core_id]
                        if pipeline.columnar and slot.stream is not None:
                            ledger = ledgers[slot.core_id]
                            table = processes[slot.pid].page_table
                            cursor, accesses, cycles, walks = (
                                pipeline.run_epoch(
                                    slot,
                                    quantum,
                                    table,
                                    ticks.interval
                                    - ticks.accesses_since_tick,
                                )
                            )
                            scheduler.advance(slot, cursor)
                            ledger.charge_translation(cycles)
                            ledger.charge_accesses(accesses)
                            walks_by_pid[slot.pid] += walks
                            ticks.note(accesses)
                            huge_z, base_z, migrated = drain_fault_work()
                            ledger.charge_fault_work(huge_z, base_z, migrated)
                            if ticks.due:
                                self._run_tick(ticks, monitor, obs)
                                if monitor is not None:
                                    monitor.after_tick(ticks)
                            continue
                    elif len(live) > 1 and self._multithread_epoch(
                        live, scheduler, ticks, walks_by_pid,
                        monitor, obs
                    ):
                        continue
                for slot in scheduler.next_round():
                    pipeline = pipelines[slot.core_id]
                    ledger = ledgers[slot.core_id]
                    table = processes[slot.pid].page_table
                    if tracer is None:
                        cursor, accesses, cycles, walks = pipeline.run_quantum(
                            slot, quantum, table
                        )
                    else:
                        with tracer.span(
                            "quantum",
                            cat="engine",
                            tid=CORE_TID_BASE + slot.core_id,
                            process=slot.pid,
                        ):
                            cursor, accesses, cycles, walks = (
                                pipeline.run_quantum(slot, quantum, table)
                            )
                    scheduler.advance(slot, cursor)
                    ledger.charge_translation(cycles)
                    ledger.charge_accesses(accesses)
                    walks_by_pid[slot.pid] += walks
                    ticks.note(accesses)
                    huge_z, base_z, migrated = drain_fault_work()
                    ledger.charge_fault_work(huge_z, base_z, migrated)

                if ticks.due:
                    self._run_tick(ticks, monitor, obs)
                    if monitor is not None:
                        monitor.after_tick(ticks)

        # Final tick so trailing candidates are not lost on short runs.
        self._run_tick(ticks, monitor, obs, final=True)
        if monitor is not None:
            monitor.after_run(ticks)
        if prog is not None:
            report_progress(final=True)

        with trace_span("machine.collect", cat="engine"):
            result = self._collect(workloads, ticks, walks_by_pid)
            result.metrics = registry.export(
                meta={
                    "policy": self.policy.value,
                    "cores": len(self.cores),
                    "fast_path": self.fast_path,
                    "columnar": self.columnar,
                    "promote_every_accesses": self.config.os.promote_every_accesses,
                    "processes": sorted(processes),
                    "run_id": current_run_id(),
                }
            )
            publish_run(result.metrics)
        return result

    # ------------------------------------------------------------------
    # multi-thread columnar epochs

    def _multithread_epoch(self, live, scheduler, ticks, walks_by_pid,
                           monitor, obs) -> bool:
        """Retire one scalar round-robin span as per-core epochs.

        The scalar loop interleaves fixed quanta round-robin and checks
        the tick only at round boundaries, so between two TLB-mutating
        events every core's record stream is a deterministic function
        of the plan alone: per-core TLBs, walkers and PCCs see only
        their own slot's accesses (distinct cores required), page
        faults are globally ordered by (round, slot) — replayed exactly
        by per-window fault pre-passes — and page-table accessed bits,
        the only cross-core coupling, get one merged per-process pass
        in scalar walk order. Returns False (nothing retired) when a
        gate fails; True when the span retired as epochs or replayed
        bit-identically after a classifier decline.
        """
        if self.config.pcc.shared:
            # One PCC consumes walk admissions from every core in
            # round-interleaved order; per-slot bulk applies would
            # reorder them.
            return False
        first = self.pipelines[live[0].core_id]
        if first._plru:
            # The epoch classifier is exact-LRU-specific (see
            # run_epoch); count the decline once per span.
            first.columnar_plru_fallbacks += 1
            return False
        pipelines = self.pipelines
        seen_cores = set()
        for slot in live:
            pipeline = pipelines[slot.core_id]
            if not pipeline.columnar or slot.stream is None:
                return False
            if slot.core_id in seen_cores:
                # Two slots on one core share its TLBs; their probe
                # streams interleave mid-span and cannot be classified
                # independently.
                return False
            seen_cores.add(slot.core_id)
        ok = True
        for slot in live:
            if slot.columnar_off:
                slot.columnar_probe -= 1
                if slot.columnar_probe > 0:
                    ok = False
                else:
                    slot.columnar_off = False
        if not ok:
            return False

        # ---- plan the rounds the scalar loop would run before its
        # due-check fires: every round covers every live slot, in
        # round-robin order, under ``run_quantum``'s window rule.
        # Planning stops once the interval is covered or a slot
        # exhausts (the next scalar round would recompute the live
        # set; the outer loop re-enters and re-plans).
        quantum = self.thread_quantum
        interval_remaining = ticks.interval - ticks.accesses_since_tick
        cur = [slot.cursor for slot in live]
        ends: list[list[int]] = [[] for _ in live]
        rounds: list[list[tuple[int, int, int]]] = []
        total = 0
        while True:
            this_round = []
            for i, slot in enumerate(live):
                c = cur[i]
                cum = slot.stream.cum
                nxt = int(np.searchsorted(cum, cum[c] + quantum,
                                          side="left"))
                if nxt > slot.length:
                    nxt = slot.length
                if nxt <= c:  # pragma: no cover - counts are >= 1
                    nxt = c + 1
                this_round.append((i, c, nxt))
                total += int(cum[nxt] - cum[c])
                cur[i] = nxt
            rounds.append(this_round)
            for i in range(len(live)):
                ends[i].append(cur[i])
            if total >= interval_remaining or any(
                cur[i] >= s.length for i, s in enumerate(live)
            ):
                break
        min_records = TranslationPipeline.MIN_EPOCH_RECORDS
        if any(cur[i] - s.cursor < min_records
               for i, s in enumerate(live)):
            return False

        processes = self.kernel.processes
        ledgers = self.ledgers
        drain = self.kernel.drain_fault_work
        tables = {slot.pid: processes[slot.pid].page_table
                  for slot in live}

        # ---- faults in exact scalar order: per (round, slot) window,
        # drained and charged to the running core like a quantum.
        for this_round in rounds:
            for i, s0, s1 in this_round:
                slot = live[i]
                pipelines[slot.core_id]._epoch_faults(
                    slot, s0, s1, tables[slot.pid]
                )
                huge_z, base_z, migrated = drain()
                ledgers[slot.core_id].charge_fault_work(
                    huge_z, base_z, migrated
                )

        # ---- classify each slot's whole span against its own core
        # (read-only; a decline replays the plan through the quantum
        # tiers instead, with identical results).
        ctxs = []
        for i, slot in enumerate(live):
            pipeline = pipelines[slot.core_id]
            if slot.bsets is None:
                pipeline._attach_epoch_views(slot)
            ctx = pipeline._epoch_classify(
                slot, slot.cursor, ends[i][-1], tables[slot.pid]
            )
            if ctx is None:
                pipeline.columnar_fallbacks += 1
                self._replay_rounds(live, rounds, scheduler, ticks,
                                    walks_by_pid, tables)
                self._after_span(ticks, monitor, obs)
                return True
            ctxs.append(ctx)

        # ---- page-table accessed bits: one merged pass per process,
        # in scalar walk order (round, then round-robin position, then
        # program order within the slot).
        by_pid: dict[int, list[int]] = {}
        for i, slot in enumerate(live):
            by_pid.setdefault(slot.pid, []).append(i)
        for pid, idxs in by_pid.items():
            table = tables[pid]
            if len(idxs) == 1:
                ctx = ctxs[idxs[0]]
                ctx.walk_pud, ctx.walk_pmd = residue.page_table_pass(
                    table, ctx.walk_vpns, ctx.walk_sizes
                )
                continue
            vpn_parts = []
            size_parts = []
            round_keys = []
            order_keys = []
            for pos, i in enumerate(idxs):
                ctx = ctxs[i]
                round_ends = np.asarray(ends[i], dtype=np.int64)
                round_keys.append(np.searchsorted(
                    round_ends, ctx.walk_ridx, side="right"
                ))
                order_keys.append(np.full(
                    ctx.walk_ridx.size, pos, dtype=np.int64
                ))
                vpn_parts.append(ctx.walk_vpns)
                size_parts.append(ctx.walk_sizes)
            vpns = np.concatenate(vpn_parts)
            sizes = np.concatenate(size_parts)
            order = np.lexsort((
                np.concatenate(order_keys), np.concatenate(round_keys)
            ))
            pud = np.empty(vpns.size, dtype=bool)
            pmd = np.empty(vpns.size, dtype=bool)
            pud[order], pmd[order] = residue.page_table_pass(
                table, vpns[order], sizes[order]
            )
            pos0 = 0
            for i in idxs:
                ctx = ctxs[i]
                nw = int(ctx.walk_vpns.size)
                ctx.walk_pud = pud[pos0:pos0 + nw]
                ctx.walk_pmd = pmd[pos0:pos0 + nw]
                pos0 += nw

        # ---- commit per slot, with the scalar loop's bookkeeping.
        for i, slot in enumerate(live):
            pipeline = pipelines[slot.core_id]
            ledger = ledgers[slot.core_id]
            cursor, accesses, cycles, walks = pipeline._epoch_finish(
                slot, ctxs[i]
            )
            scheduler.advance(slot, cursor)
            ledger.charge_translation(cycles)
            ledger.charge_accesses(accesses)
            walks_by_pid[slot.pid] += walks
            ticks.note(accesses)
            pipeline.columnar_mt_epochs += 1
        self._after_span(ticks, monitor, obs)
        return True

    def _replay_rounds(self, live, rounds, scheduler, ticks,
                       walks_by_pid, tables) -> None:
        """Replay a planned multi-thread span through the quantum
        tiers: the scalar round loop, minus the per-round due check
        (the plan already stops where the scalar loop's would fire)."""
        quantum = self.thread_quantum
        pipelines = self.pipelines
        ledgers = self.ledgers
        drain = self.kernel.drain_fault_work
        for this_round in rounds:
            for i, _s0, _s1 in this_round:
                slot = live[i]
                pipeline = pipelines[slot.core_id]
                ledger = ledgers[slot.core_id]
                cursor, accesses, cycles, walks = pipeline.run_quantum(
                    slot, quantum, tables[slot.pid]
                )
                scheduler.advance(slot, cursor)
                ledger.charge_translation(cycles)
                ledger.charge_accesses(accesses)
                walks_by_pid[slot.pid] += walks
                ticks.note(accesses)
                huge_z, base_z, migrated = drain()
                ledger.charge_fault_work(huge_z, base_z, migrated)

    def _after_span(self, ticks, monitor, obs) -> None:
        """The scalar loop's post-round due check."""
        if ticks.due:
            self._run_tick(ticks, monitor, obs)
            if monitor is not None:
                monitor.after_tick(ticks)

    # ------------------------------------------------------------------
    # observability hooks

    def _run_tick(self, ticks: OsTickDriver, monitor, obs,
                  final: bool = False):
        """One promotion interval, observed or not (due and final paths).

        Replicates the former inline sequence exactly — sync, invariant
        pre-sweep, tick, conditional (unconditional when final) memo
        invalidation — adding, only on observed runs, a pre-tick PCC/TLB
        snapshot, an ``os_tick`` span, the tick-duration histogram
        sample, and promotion-lag samples from the tick's outcome.
        """
        start_ns = time.perf_counter_ns() if obs is not None else 0
        self.sync_pipelines()
        if monitor is not None:
            monitor.before_tick()
        if obs is None:
            return self._tick_and_invalidate(ticks, final)
        self._snapshot_state(obs, ticks)
        with obs.span("os_tick", cat="os", final=final,
                      accesses=ticks.total_accesses):
            outcome = self._tick_and_invalidate(ticks, final)
        obs.note_promotions(outcome.promoted, ticks.total_accesses)
        obs.note_tick((time.perf_counter_ns() - start_ns) / 1000.0)
        return outcome

    def _tick_and_invalidate(self, ticks: OsTickDriver, final: bool):
        obs = self.obs
        stamp = self._tlb_mutation_stamp()
        if final:
            outcome = ticks.final_tick(self.cores, self.ledgers)
        else:
            outcome = ticks.tick(self.cores, self.ledgers)
        if final or self._tlb_mutation_stamp() != stamp:
            with obs.span("tick.flush", cat="os") if obs is not None \
                    else nullcontext():
                self.invalidate_fast_paths()
        return outcome

    def _attach_walk_observers(self, obs: RunObserver, ticks: OsTickDriver) -> None:
        """Swap each pipeline's translate binding for a recording wrapper.

        The wrapper delegates to the real ``Core.translate`` unchanged
        (bit-identity by construction) and, when the access missed the
        TLBs, records the walk's latency — the returned cycles net of
        the repeat-hit cycles folded into the same return — plus the
        region's first-walk stamp for promotion-lag accounting. The
        process id comes from the pipeline's active slot (set by
        ``run_quantum``), and "now" is the tick driver's retired-access
        clock at quantum granularity.
        """
        miss_level = HitLevel.MISS
        note_walk = obs.note_walk
        for pipeline in self.pipelines:
            def observed_translate(
                vpn,
                page_table,
                repeat,
                _translate=pipeline.core.translate,
                _pipeline=pipeline,
                _l1_hit=pipeline.core.config.timing.l1_tlb_hit_cycles,
            ):
                result = _translate(vpn, page_table, repeat)
                if result[1] is miss_level:
                    slot = _pipeline._active_slot
                    note_walk(
                        slot.pid if slot is not None else -1,
                        vpn >> _HUGE_SHIFT,
                        result[0] - _l1_hit * (repeat - 1),
                        ticks.total_accesses,
                    )
                return result

            pipeline._translate = observed_translate

    def _snapshot_state(self, obs: RunObserver, ticks: OsTickDriver) -> None:
        """Pre-tick top-K PCC region counts + TLB occupancy (read-only).

        Taken before the tick dumps (and, in dump-and-clear mode,
        empties) the PCCs, via the non-mutating ``ranked()`` view.
        Emitted as trace instants only, so histogram-only observers
        skip the gathering entirely.
        """
        if obs.tracer is None:
            return
        regions: list[tuple[int, int, int]] = []
        occupancy: dict[str, int] = {}
        for core in self.cores:
            pid = self._pid_for_core(core.core_id)
            if pid is not None:
                for entry in core.pcc.ranked():
                    regions.append((pid, entry.tag, entry.frequency))
            tlb = core.tlb
            for structure in (tlb.l1_base, tlb.l1_huge, tlb.l1_giga, tlb.l2):
                occupancy[structure.name] = occupancy.get(structure.name, 0) + sum(
                    len(entries) for entries in structure.sets
                )
        regions.sort(key=lambda item: (-item[2], item[0], item[1]))
        obs.snapshot(
            ticks.total_accesses,
            len(ticks.promotion_timeline),
            regions,
            occupancy,
        )

    # ------------------------------------------------------------------
    # stage helpers

    def sync_pipelines(self) -> None:
        """Flush every pipeline's batched counters into the stats bags."""
        for pipeline in self.pipelines:
            pipeline.sync()

    def invalidate_fast_paths(self) -> None:
        """Epoch-bump every pipeline after TLB state changed externally."""
        for pipeline in self.pipelines:
            pipeline.invalidate_hints()

    def _tlb_mutation_stamp(self) -> int:
        """Total TLB invalidations across every core and structure.

        Every way an OS tick can mutate TLB state behind the pipelines'
        backs — promotion/demotion shootdowns, giga shootdowns, full
        flushes — removes entries through ``TLB.invalidate``/``flush``,
        which count only entries actually present. An unchanged stamp
        across a tick therefore proves no hint was invalidated: a hint
        names a set's MRU entry, so the entry it vouches for is
        resident, and removing a resident entry always bumps a counter.
        Ticks that promote nothing (always for the NONE policy, often
        for interval policies) then keep the memo alive at zero risk to
        bit-identity.
        """
        total = 0
        for core in self.cores:
            tlb = core.tlb
            total += (
                tlb.l1_base.stats.invalidations
                + tlb.l1_huge.stats.invalidations
                + tlb.l1_giga.stats.invalidations
                + tlb.l2.stats.invalidations
            )
        return total

    def _assign_ids(self, workloads: list[ProcessWorkload]) -> None:
        for process in workloads:
            if process.pid < 0:
                process.pid = len(self.kernel.processes) + 1
            self.kernel.spawn(process.layout, pid=process.pid)

    def _bind_threads(
        self, workloads: list[ProcessWorkload], fault_path: FaultPath
    ) -> ThreadScheduler:
        """Pin threads to cores and build the round-robin scheduler."""
        scheduler = ThreadScheduler(self.thread_quantum)
        self._core_pid_map = {}
        cores = len(self.cores)
        next_core = 0
        stream_cache = self._stream_cache()
        for process in workloads:
            seen = fault_path.seen_for(process.pid)
            fault = fault_path.handler_for(process.pid)
            bulk_fault = (
                fault_path.bulk_handler_for(process.pid)
                if self.columnar else None
            )
            for thread in process.threads:
                core = thread.core
                if core < 0:
                    core = next_core % cores
                    next_core += 1
                if core >= cores:
                    raise ValueError(
                        f"thread pinned to core {core} but system has "
                        f"{cores} cores"
                    )
                thread.core = core
                self._core_pid_map[core] = process.pid
                stream = (
                    thread.columnar_stream(
                        cache=stream_cache, slot=len(scheduler.slots)
                    )
                    if self.columnar else None
                )
                scheduler.add(
                    thread.trace.vpns.tolist(),
                    thread.trace.counts.tolist(),
                    process.pid,
                    core,
                    seen,
                    fault,
                    stream=stream,
                    bulk_fault=bulk_fault,
                )
        return scheduler

    def _stream_cache(self):
        """Trace cache for columnar encodings, or None.

        Cached content-addressed only when the environment explicitly
        points ``REPRO_TRACE_CACHE`` at a directory — an unset variable
        must not make plain simulation runs write to the default cache
        location behind the user's back.
        """
        if not self.columnar:
            return None
        import os

        from repro.trace.cache import (
            CACHE_DIR_ENV,
            TraceCache,
            cache_dir_from_env,
        )

        if not os.environ.get(CACHE_DIR_ENV, "").strip():
            return None
        directory = cache_dir_from_env()
        if directory is None:
            return None
        return TraceCache(directory)

    def _pid_for_core(self, core_id: int) -> int | None:
        """Process whose thread runs on ``core_id`` (static pinning)."""
        return self._core_pid_map.get(core_id)

    def _register_metrics(self, registry: MetricsRegistry) -> None:
        """Register every stats bag of this machine into the registry."""
        for i, (core, pipeline, ledger) in enumerate(
            zip(self.cores, self.pipelines, self.ledgers)
        ):
            prefix = f"core{i}"

            def provider(core=core, pipeline=pipeline, ledger=ledger,
                         prefix=prefix) -> dict[str, int]:
                values = core.stats.as_metrics(prefix)
                tlb = core.tlb
                for structure in (tlb.l1_base, tlb.l1_huge, tlb.l1_giga,
                                  tlb.l2):
                    values.update(
                        structure.stats.as_metrics(
                            f"{prefix}.tlb.{structure.name}"
                        )
                    )
                values.update(ledger.as_metrics(f"{prefix}.cycles"))
                values.update(pipeline.as_metrics(f"{prefix}.fastpath"))
                return values

            registry.register(provider)
        registry.register(self.kernel.metrics)

    # ------------------------------------------------------------------
    # the promotion interval

    def promotion_tick(self, cores, ledgers):
        """Fig. 4: dump PCCs, let the kernel promote, apply shootdowns."""
        obs = self.obs

        def stage(name: str):
            return obs.span(name, cat="os") if obs is not None else nullcontext()

        records: list[CandidateRecord] = []
        giga_records: list[CandidateRecord] = []
        if self.policy is HugePagePolicy.PCC:
            # §3.3 offers two read styles: the periodic dump-and-clear
            # (Fig. 4) or an on-demand snapshot that leaves counters
            # accumulating across intervals.
            snapshot = self.kernel.params.pcc_dump_mode == "snapshot"
            with stage("tick.scan"):
                for core in cores:
                    pid = self._pid_for_core(core.core_id)
                    if pid is None:
                        continue
                    entries = (
                        core.pcc.ranked() if snapshot else core.pcc.flush()
                    )
                    self.dump_region.write(entries, pid=pid, core=core.core_id)
                    if core.pcc_1gb is not None:
                        giga_entries = (
                            core.pcc_1gb.ranked()
                            if snapshot
                            else core.pcc_1gb.flush()
                        )
                        self.dump_region.write(
                            giga_entries,
                            pid=pid,
                            core=core.core_id,
                            page_size=PageSize.GIGA,
                        )
            with stage("tick.rank"):
                all_records = self.dump_region.read_all()
                records = [
                    r for r in all_records if r.page_size is PageSize.HUGE
                ]
                giga_records = [
                    r for r in all_records if r.page_size is PageSize.GIGA
                ]

        def on_shootdown(pid: int, prefix: int) -> None:
            for core in cores:
                core.shootdown(prefix)

        def on_giga_shootdown(pid: int, giga: int) -> None:
            # a gigabyte of translations is invalidated: a full flush is
            # the simple, conservative hardware response
            for core in cores:
                core.tlb.flush()
                core.walker.flush_pwc()
                if core.pcc_1gb is not None:
                    core.pcc_1gb.invalidate(giga)

        with stage("tick.promote"):
            outcome = self.kernel.promotion_tick(
                pcc_records=records,
                giga_records=giga_records,
                on_shootdown=on_shootdown,
                on_giga_shootdown=on_giga_shootdown,
            )
        work = len(outcome.promoted) + len(outcome.demoted)
        if work and ledgers:
            # promotion runs on one kernel thread; shootdowns hit all cores
            ledgers[0].charge_promotions(
                promotions=len(outcome.promoted),
                shootdown_broadcasts=outcome.shootdowns,
                migrated_pages=outcome.pages_migrated,
                cores=len(ledgers),
            )
        return outcome

    # ------------------------------------------------------------------
    # result collection

    def _collect(self, workloads, ticks: OsTickDriver, walks_by_pid):
        from repro.engine.simulation import ProcessResult, SimulationResult

        cores = self.cores
        per_core = [RuntimeBreakdown.of(ledger) for ledger in self.ledgers]
        serialization = 0
        if self.serialization_cycles_per_access > 0:
            total_acc = sum(core.stats.accesses for core in cores)
            serialization = int(total_acc * self.serialization_cycles_per_access)
        wall = max((b.total for b in per_core), default=0) + serialization

        processes = []
        for workload in workloads:
            table = self.kernel.processes[workload.pid].page_table
            processes.append(
                ProcessResult(
                    pid=workload.pid,
                    name=workload.name,
                    accesses=workload.total_accesses,
                    # Walks are attributed per-pid as quanta retire, so
                    # processes sharing a core (or running unpinned) do
                    # not inherit each other's walks.
                    walks=walks_by_pid.get(workload.pid, 0),
                    huge_pages=len(table.promoted_regions()),
                    footprint_regions=workload.footprint_huge_regions(),
                )
            )
        return SimulationResult(
            policy=self.policy.value,
            total_cycles=wall,
            per_core=per_core,
            processes=processes,
            accesses=sum(core.stats.accesses for core in cores),
            walks=sum(core.stats.walks for core in cores),
            l1_hits=sum(core.stats.l1_hits for core in cores),
            l2_hits=sum(core.stats.l2_hits for core in cores),
            promotions=ticks.promotions,
            demotions=ticks.demotions,
            promotion_timeline=ticks.promotion_timeline,
            huge_page_timeline=ticks.huge_page_timeline,
        )
