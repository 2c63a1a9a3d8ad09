"""The staged machine: the one engine object behind every run.

:class:`Machine` decomposes the run loop into three explicit stages:

- :class:`ThreadScheduler` — round-robin over bound threads in fixed
  access quanta (the concurrency model of §5.2); each thread slot
  carries its process's first-touch seen-set and the kernel's fault
  entry points, so greedy THP acts at the right moment;
- :class:`TranslationPipeline` — the per-core TLB → walker → PCC path,
  fronted by a live L1 probe that answers repeated hits;
- :class:`OsTickDriver` — the periodic OS promotion interval, timeline
  bookkeeping, and per-interval metrics sampling. Each interval calls
  :meth:`Machine.promotion_tick`, looked up on the machine when the run
  starts, so an override or a patched method takes effect; the offline
  replay overrides only :meth:`Machine.tick_candidates`.

``repro.engine.simulation.Simulator`` is another name for
:class:`Machine`. ``tier`` picks one of :data:`ENGINE_TIERS`; every
tier is bit-identical to the scalar reference.

Every tier reads a thread's trace in one form, its
:class:`~repro.engine.columnar.ColumnarStream`, and cuts it with one
window rule, :meth:`_ThreadSlot.window_end`: a quantum retires whole
records until their accesses reach the quantum, found by one
``searchsorted`` over the stream's access prefix sums. The quantum
loops (``tier="scalar"`` and ``tier="fast"``, and the columnar tier's
replays) list one window's VPNs and run lengths at a time and take a
window's accesses from the prefix sums; a columnar span plans its
rounds from the same windows.

The translation fast path
-------------------------

The hot loop's dominant cost is the Python object graph under
``TLBHierarchy.lookup`` — method dispatch, per-structure statistics,
and several frames of call overhead — paid even when an access
trivially hits the L1 TLB again. The fast path answers L1 hits with
one probe of the live L1 set, in the hierarchy's order (4K before
2M). Under LRU a hit's *entire* state change on the real path is the
del/reinsert recency refresh, which the probe performs itself; under
tree-PLRU dict order no longer tracks recency, so the probe reads the
L1's tag->way map instead and performs the one masked tree touch
(``plru.touch_masks``) the real lookup would. Either way the probe
charges constant hit cycles and batches the statistics; everything
else (L2 hits, 1GB hits, walks) takes the full path. The probe reads
only live TLB state and keeps none of its own, so nothing the OS tick
does to the TLBs (shootdowns, promotions, demotions, flushes) can
leave it stale, and the fast path is bit-identical to the slow path —
the property tests assert equal walks, hits, cycles, and promotions
across the tiers.

The columnar epoch tier
-----------------------

``tier="columnar"`` (the default; it falls back to the fast path)
leaves the per-record loop behind: between TLB-mutating events
there is no reason to stop at quantum boundaries at all. The machine
retires the **entire remaining OS-tick interval** as one span, one
epoch per live thread, in one array pass whether one thread is live or
several:

1. *Window*: ``Machine._columnar_span`` plans the round-robin schedule
   the scalar loop would run before its next due-check fires: every
   round covers every live slot in scheduler order, one quantum window
   each (:meth:`_ThreadSlot.window_end`, the rule the quantum loops
   run), until the accumulated accesses cover the remaining promotion
   interval or a slot runs out. Each
   slot's epoch spans its whole share of the plan
   (:meth:`TranslationPipeline.run_epoch`), and the slots' windows
   join in scheduler order into one span stream, each record tagged
   with its slot. With one live slot that is simply its remaining
   interval. With several it is sound because distinct cores' TLBs,
   walkers and PCCs never observe each other's records, faults replay
   in exact (round, slot) order, and the one cross-core coupling
   (page-table accessed bits) gets a merged per-process pass in
   scalar walk order. Only then do two gates apply: no shared PCC and
   no two live slots on one core.
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
   region's mapping state selects (its set id and 2MB tag come from
   its VPN; every core shares one geometry), and the structure's whole
   span touch stream — every core's — is classified hit/miss in one
   exact vectorized LRU pass (:mod:`repro.engine.columnar`). Slot k's set s
   is span set ``k * nsets + s`` (:func:`residue.span_set_ids`): the
   gates keep every (core, set) stream private, so one call over the
   side-by-side sets equals one call per core. Classified hits retire
   in bulk — counters and hit cycles are array reductions, no
   per-record Python.
4. *Residue*: the L1-miss stream is itself classified, not replayed
   (:mod:`repro.engine.residue`). The unified L2 and the 1GB L1 are
   two more whole-epoch LRU streams (4K records at their VPN,
   huge-backed ones at their region tag, 1GB-backed ones at their
   giga tag); the scalar lookup's silent probes are licensed as
   LRU-inert by a conservative alias pre-check, and windows the model
   cannot cover (aliasing, odd fill shapes, unmapped holes) replay
   through the quantum tiers bit-identically (the alias check keys
   tags by core, so one check covers the span). Only classified
   L2/1GB misses walk: the walkers' cost model and their page-walk
   caches are vectorized too (each slot's memo over its own walks,
   then one LRU classification per level over every core's PWC),
   page-table accessed bits land in one compute-then-apply pass, and
   PCC admissions apply in one bulk call per structure and core at
   epoch end (the OS only reads the PCC at ticks, which an epoch
   never spans).
5. *Reconstruction*: the results split back per core, and every
   classified structure's set dicts — both L1s, the L2, the 1GB L1,
   and the PWCs — are rebuilt to their exact end-of-epoch contents
   (the W most recently touched distinct tags per set, LRU→MRU),
   evictions are counted from per-set fill counts against
   start-of-epoch occupancy — so every later tier, tick, and
   invariant check observes precisely the state record-at-a-time
   simulation would have left.

Epoch statistics land in the same pending counters the fast path
uses, so ``sync()`` remains the single flush point.
``tier="fast"`` and ``tier="scalar"`` select the quantum loops
unconditionally.

Under tree-PLRU the classifier's exact-LRU algebra does not apply, so a
PLRU span plans its rounds the same way, takes the fault pre-pass
(policy-blind: faults never touch TLBs), and replays the rounds through
the fast loop (``Machine._replay_rounds``) — the path a declined LRU
span takes. Each PLRU span counts once as ``columnar_plru_fallbacks``
and reports the ``fast`` tier that retired it.

Observed runs
-------------

An observed run (a tracer, or ``REPRO_OBS``) executes the tiers the
unobserved run executes. The quantum loops log each walk (the log is
None when unobserved: one test per walk); a committed span hands its
walks over in bulk. Each walk is clocked at its record's retired-access
index in the scalar loop's (round, slot) order, so every tier reports
the same histograms.
"""

from __future__ import annotations

import time
from dataclasses import fields
from functools import partial
from typing import NamedTuple

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

#: The engine tiers, in trust order: ``scalar`` is the reference, ``fast``
#: adds the live L1 probe, ``columnar`` (the default) retires whole
#: spans in array passes and falls back to the fast loop.
ENGINE_TIERS = ("scalar", "fast", "columnar")

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


def _checked_tier(tier: str) -> str:
    """``tier`` if it names one of :data:`ENGINE_TIERS`, else ValueError."""
    if tier not in ENGINE_TIERS:
        raise ValueError(
            f"unknown engine tier {tier!r}; expected one of {ENGINE_TIERS}")
    return tier


def _region_mapping_state(page_table, tag: int) -> int:
    """Classify 2MB region ``tag``'s mapping for the epoch classifier."""
    if page_table.is_promoted(tag >> _GIGA_SHIFT, PageSize.GIGA):
        return _REGION_OTHER
    if page_table.is_promoted(tag):
        return _REGION_HUGE
    if page_table.region_base_pages(tag):
        return _REGION_BASE
    return _REGION_EMPTY


class _SetsEpoch(NamedTuple):
    """One LRU structure's classified span (:func:`_classify_sets`)."""

    #: the structure's touch tags, slot by slot, program order within
    tags: np.ndarray
    #: per-touch hit mask
    hits: np.ndarray
    #: every core's end-of-span set contents, LRU→MRU, slot k's set s
    #: at ``k * nsets + s``
    final: list
    #: per slot: fills that evict, against start-of-span occupancy
    evictions: np.ndarray
    #: per slot: its touches are ``tags[bounds[k]:bounds[k + 1]]``
    bounds: list


def _classify_sets(structures, slots, local_sets, tags) -> _SetsEpoch:
    """Classify one LRU structure's span touch stream, read-only.

    ``structures`` holds the structure on each slot's core, in slot
    order; ``slots`` / ``local_sets`` / ``tags`` are the span's touches,
    slot by slot in program order: each touch's slot, its set in that
    core's structure, and its tag. Every core's sets lie side by side
    under span-wide set ids (:func:`residue.span_set_ids`), so one
    classifier call covers all of them. The live set dicts' contents
    (insertion order is LRU→MRU) enter as synthetic older touches,
    which reproduces the exact recency state at span start. Evictions
    need no replay: occupancy never falls mid-epoch (no invalidations
    between ticks) and every classified miss fills one entry, so per
    set the fills beyond the start-of-span headroom each evict.
    """
    sets_dicts = [entries for structure in structures
                  for entries in structure.sets]
    nsets = len(sets_dicts)
    ways = structures[0].config.ways
    setw = residue.span_set_ids(structures, slots, local_sets)
    init_sets, init_tags = residue.stack_arrays(sets_dicts)
    hits, final = classify_lru_hits(
        setw, tags, ways, init_sets, init_tags, nsets=nsets
    )
    occ0 = np.bincount(init_sets, minlength=nsets)
    evictions = epoch_evictions(setw[~hits], nsets, ways, occ0,
                                len(structures))
    bounds = np.searchsorted(slots, np.arange(len(structures) + 1))
    return _SetsEpoch(tags, hits, final, evictions, bounds.tolist())


def _rebuild_sets(structures, epoch: _SetsEpoch, entry) -> None:
    """Commit a :func:`_classify_sets` result to the live structures.

    For each core that touched the structure, counts its evictions and
    rebuilds every set dict to its end-of-span contents, LRU→MRU.
    ``entry`` is the value a fill stores: one int, or — for the unified
    L2, whose 4K and 2MB fills store different values — an array of one
    value per touch; a hit keeps the stored value, so the core's fill
    history is replayed over its initial values.
    """
    bounds = epoch.bounds
    for k, structure in enumerate(structures):
        lo, hi = bounds[k], bounds[k + 1]
        if lo == hi:
            continue
        structure.stats.evictions += int(epoch.evictions[k])
        sets_dicts = structure.sets
        nsets = len(sets_dicts)
        final = epoch.final[k * nsets:(k + 1) * nsets]
        if isinstance(entry, np.ndarray):
            value_of = {}
            for entries in sets_dicts:
                value_of.update(entries)
            miss = ~epoch.hits[lo:hi]
            value_of.update(zip(epoch.tags[lo:hi][miss].tolist(),
                                entry[lo:hi][miss].tolist()))
            for entries, content in zip(sets_dicts, final):
                entries.clear()
                for tag in content:
                    entries[tag] = value_of[tag]
        else:
            for entries, content in zip(sets_dicts, final):
                entries.clear()
                for tag in content:
                    entries[tag] = entry


def _stats_metrics(stats, prefix: str) -> dict[str, int]:
    """A stats dataclass's fields as counter readings under ``prefix``."""
    return {f"{prefix}.{field.name}": getattr(stats, field.name)
            for field in fields(stats)}


def _span_cat(parts) -> np.ndarray:
    """The slots' arrays joined in slot order (a lone slot's as is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _segment_sums(values, bounds) -> list:
    """Per-slot sums of ``values`` over the segments ``bounds``."""
    csum = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=csum[1:])
    bounds = np.asarray(bounds)
    return (csum[bounds[1:]] - csum[bounds[:-1]]).tolist()


def _fault_windows(slots, ends) -> list:
    """A planned span's fault windows ``[k, start, end]`` (slot k's
    records ``[start, end)``) in the scalar loop's (round, slot) order,
    adjacent windows of one slot merged."""
    windows = []
    for r in range(len(ends[0])):
        for k, slot in enumerate(slots):
            if windows and windows[-1][0] == k:
                windows[-1][2] = ends[k][r]
            else:
                start = ends[k][r - 1] if r else slot.cursor
                windows.append([k, start, ends[k][r]])
    return windows


def _note_walks(obs, base, slot, vpns, cycles, offsets) -> None:
    """Hand ``slot``'s walks to the observer, clocked at their records:
    ``offsets`` are the walking records' retired accesses since
    ``base``, a quantum's or a span's start on the run's clock."""
    obs.note_walks(slot.pid,
                   np.asarray(vpns, dtype=np.uint64) >> np.uint64(_HUGE_SHIFT),
                   np.asarray(cycles, dtype=np.int64),
                   base + np.asarray(offsets, dtype=np.int64))


def _span_walk_offsets(span, slots, ends, walk_round, note_walks) -> None:
    """Hand a committed span's walks to ``note_walks``, slot by slot,
    each at the accesses the scalar loop retires from span start before
    its record: the exclusive prefix of the window accesses in (round,
    slot) order, plus the record's offset inside its window."""
    cums = [slot.stream.cum for slot in slots]
    # slot k's round r runs records [window_starts[k][r], ends[k][r])
    window_starts = [[start] + slot_ends[:-1]
                     for start, slot_ends in zip(span.starts, ends)]
    units = np.asarray([cum[slot_ends] - cum[starts] for cum, slot_ends,
                        starts in zip(cums, ends, window_starts)]).T.ravel()
    prefix = (np.cumsum(units) - units).reshape(len(ends[0]), len(slots)).T
    bounds = span.walk_bounds
    for k, slot in enumerate(slots):
        lo, hi = bounds[k], bounds[k + 1]
        if lo < hi:
            cum = cums[k]
            records = span.walk_pos[lo:hi] - span.offsets[k] + span.starts[k]
            window_base = prefix[k] - cum[window_starts[k]]
            note_walks(slot, span.walk_vpns[lo:hi],
                       span.walk_plans[k].cycles,
                       window_base[walk_round[lo:hi]] + cum[records])


class _SpanContext:
    """Classification results for one span, pre-commit.

    Produced read-only by ``TranslationPipeline._epoch_classify`` and
    consumed by ``_epoch_finish``; splitting the two lets the span run
    one merged page-table pass per process between them. Arrays run
    over the whole span, slot by slot; ``offsets`` / ``res_bounds`` /
    ``walk_bounds`` cut records, residue records and walks per slot.
    ``base``/``huge``/``l2``/``giga`` are the four classified LRU
    structures (L1-4K, L1-2M, unified L2, L1-1G), each a
    :class:`_SetsEpoch` or None when no slot touches it.
    """

    __slots__ = (
        "starts", "stops", "offsets", "window_units", "hit_units", "base",
        "huge", "l2", "giga", "res_counts", "res_bounds", "l2_rows",
        "l2_fills", "giga_rows", "walk_vpns", "walk_sizes", "walk_repeats",
        "walk_pos", "walk_slots", "walk_bounds", "walk_plans", "walk_pud",
        "walk_pmd",
    )


class _ThreadSlot:
    """One schedulable thread: its trace, a cursor, pinned identities."""

    __slots__ = ("stream", "cursor", "length", "pid", "core_id", "seen",
                 "fault", "bulk_fault", "live", "seen_np")

    def __init__(self, stream, pid, core_id, seen, fault, bulk_fault=None):
        # The thread's one trace form, a columnar stream
        # (repro.engine.columnar): VPNs, run lengths and their prefix
        # sums, and the dense page/region vocabularies. The quantum
        # loops list one window of it at a time (plain lists iterate
        # several times faster than numpy scalar indexing in those
        # sequential loops); spans gather from the arrays.
        self.stream = stream
        self.cursor = 0
        self.length = len(stream)
        self.pid = pid
        self.core_id = core_id
        self.seen = seen
        self.fault = fault
        # The kernel's ``handle_fault(pid, vaddr)`` and, for base-backed
        # policies on the columnar tier, ``handle_faults_bulk(pid,
        # vaddrs)``, which the epoch fault pre-pass prefers.
        self.bulk_fault = bulk_fault
        self.live = True
        # Conservative positive cache over the unique-page index: True
        # proves the page is in the process seen-set, False means "ask
        # the set" (threads of one process share the set, so another
        # slot may have seen the page first). Allocated on first epoch.
        self.seen_np = None

    def window_end(self, cursor: int, quantum: int) -> int:
        """The record a quantum starting at ``cursor`` stops before.

        The one window rule every tier shares: a quantum retires whole
        records until their accesses reach ``quantum`` or the trace
        ends, so it stops at the first record boundary whose access
        prefix sum reaches ``cum[cursor] + quantum``. Run lengths and
        quanta are positive, so a window holds at least one record.
        """
        cum = self.stream.cum
        return min(int(cum.searchsorted(cum[cursor] + quantum)), self.length)


class ThreadScheduler:
    """Round-robin scheduler slicing bound threads into access quanta.

    Threads are interleaved in fixed quanta of trace records whose
    access counts sum to roughly ``quantum``
    (:meth:`_ThreadSlot.window_end`), modelling concurrent execution on
    the pinned cores.
    """

    def __init__(self, quantum: int) -> None:
        self.quantum = quantum
        self.slots: list[_ThreadSlot] = []
        self.remaining = 0

    def add(self, stream, pid, core_id, seen, fault,
            bulk_fault=None) -> _ThreadSlot:
        """Register one thread's trace for scheduling.

        ``stream`` is the thread's trace as a
        :class:`~repro.engine.columnar.ColumnarStream`, the one form
        every tier reads. ``seen`` is the process's first-touch
        seen-set (shared by its threads: one address space, one fault
        per page); ``fault`` is the kernel's ``handle_fault`` and
        ``bulk_fault`` (optional) its array-batched
        ``handle_faults_bulk``, both called with ``pid``.
        """
        slot = _ThreadSlot(stream, pid, core_id, seen, fault,
                           bulk_fault=bulk_fault)
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
    """Per-core translation stage: L1 probe fast path over TLB→walker→PCC.

    Owns the batched fast-hit counters (flushed into the canonical
    stats bags by :meth:`sync`) and the tier counters; the fast path
    itself keeps no state between quanta (see the module docstring).
    """

    #: below this epoch window (records) the whole-epoch pass cannot
    #: amortize its setup; a span with a shorter window runs one scalar
    #: round instead
    MIN_EPOCH_RECORDS = 64

    #: Tier counters, in :meth:`as_metrics` export order: records the
    #: live L1 probe answered and records that took the full path (not
    #: raw accesses); columnar epochs run, records they retired by L1
    #: classification and residue records; spans the classifier
    #: declined; residue records the L2/1GB-L1 classification retired
    #: vs records that walked; epochs of multi-thread spans; the fault
    #: pre-pass split (array-batched vs per-fault); and tree-PLRU spans,
    #: which the exact-LRU classifier cannot take (pre-fault + replay).
    COUNTERS = (
        "fast_hits", "slow_records", "columnar_epochs", "columnar_retired",
        "columnar_residue_records", "columnar_fallbacks",
        "columnar_l2_retired", "columnar_live_walked", "columnar_mt_epochs",
        "columnar_faults_batched", "columnar_faults_scalar",
        "columnar_plru_fallbacks",
    )

    def __init__(self, core: Core, tier: str = "columnar") -> None:
        self.core = core
        self.tier = _checked_tier(tier)
        l1_base = core.tlb.l1_base
        l1_huge = core.tlb.l1_huge
        self._base_sets = l1_base.sets
        self._huge_sets = l1_huge.sets
        self._nbase = l1_base.nsets
        self._nhuge = l1_huge.nsets
        self._l1_hit_cycles = core.config.timing.l1_tlb_hit_cycles
        #: the run's walk log in an observed run, else None: the quantum
        #: loops append ``(vpn, walk cycles, offset)`` per walk, where
        #: offset is the accesses retired in the quantum before the record
        self.walk_log = None
        # Batched fast-hit counters, flushed by sync().
        self._pending_base_records = 0
        self._pending_huge_records = 0
        self._pending_accesses = 0
        for name in self.COUNTERS:
            setattr(self, name, 0)
        # Power-of-two histogram of epoch lengths in records: bucket k
        # counts the epochs whose length has bit_length() == k.
        self.columnar_epoch_buckets = [0] * 32
        # Under PLRU dict order no longer tracks recency, so the fast
        # loop probes the tag->way maps and performs the masked
        # tree touch instead of the del/reinsert (see the module
        # docstring); these are the L1s' live PLRU views.
        self._plru = core.config.tlb.l1_base.replacement == "plru"
        if self._plru:
            self._base_plru = l1_base.plru_views()
            self._huge_plru = l1_huge.plru_views()

    # ------------------------------------------------------------------

    def run_quantum(self, slot: _ThreadSlot, quantum: int,
                    page_table) -> tuple:
        """Run one scheduling quantum of ``slot`` against this core.

        The quantum covers the records up to
        :meth:`_ThreadSlot.window_end`. Returns ``(cursor, accesses,
        translation_cycles, walks)`` for the ledger and per-process
        attribution. Faults are taken on first touch, before the access
        translates.
        """
        if self.tier == "scalar":
            return self._run_quantum_slow(slot, quantum, page_table)
        return self._run_quantum_fast(slot, quantum, page_table)

    def _run_quantum_slow(self, slot: _ThreadSlot, quantum: int, page_table):
        """Reference loop: every record takes the full TLB object graph."""
        start = slot.cursor
        end = slot.window_end(start, quantum)
        stream = slot.stream
        cum = stream.cum
        vpns = stream.vpns[start:end].tolist()
        counts = stream.counts[start:end].tolist()
        seen = slot.seen
        fault = slot.fault
        pid = slot.pid
        is_mapped = page_table.is_mapped
        translate = self.core.translate
        walk_log = self.walk_log
        l1_hit = self._l1_hit_cycles
        miss_level = HitLevel.MISS
        cycles = 0
        walks = 0
        for i, (vpn, repeat) in enumerate(zip(vpns, counts)):
            # Once a VPN has faulted in it stays mapped (promotion
            # preserves mapped-ness), so a per-process seen-set avoids
            # a page-table probe per record.
            if vpn not in seen:
                seen.add(vpn)
                vaddr = vpn << BASE_PAGE_SHIFT
                if not is_mapped(vaddr):
                    fault(pid, vaddr)
            step_cycles, level = translate(vpn, page_table, repeat)
            cycles += step_cycles
            if level is miss_level:
                walks += 1
                if walk_log is not None:
                    walk_log.append((vpn, step_cycles - l1_hit * (repeat - 1),
                                     int(cum[start + i] - cum[start])))
        self.slow_records += end - start
        return end, int(cum[end] - cum[start]), cycles, walks

    def _run_quantum_fast(self, slot: _ThreadSlot, quantum: int, page_table):
        """Probe loop: L1 hits bypass the TLB object graph.

        One tier in front of the full path probes the live L1 set dict
        directly: on a hit the *entire* state change of the real path
        is the del/reinsert LRU refresh, which the loop performs
        itself, skipping the translate→lookup call stack and
        batching the statistics.

        Under PLRU the del/reinsert has no meaning (dict order is not
        recency), so the probe reads the L1's tag->way map and performs
        the masked tree touch the full path's lookup would, with the
        same batched hit count; one ``if`` per structure picks the
        policy. The same reasoning keeps both exact: a live-L1-hit
        record's vpn is provably in the seen-set (the entry was filled
        by a prior access to it) so the skipped fault check is a no-op,
        and a vpn resident in L1-4K excludes a covering L1-2M entry (one
        backing per region between shootdowns), so the 4K-first probe
        order matches the hierarchy's.

        Counter bookkeeping is hoisted out of the loop: a 4KB hit, the
        common case, counts nothing and reads no run length — its
        records and accesses fall out of the window's record count and
        prefix sums net of the 2MB hits and the full-path records — and
        fast-hit cycles are one multiply.
        """
        start = slot.cursor
        end = slot.window_end(start, quantum)
        stream = slot.stream
        cum = stream.cum
        counts = stream.counts[start:end].tolist()
        seen = slot.seen
        fault = slot.fault
        pid = slot.pid
        is_mapped = page_table.is_mapped
        translate = self.core.translate
        walk_log = self.walk_log
        l1_hit = self._l1_hit_cycles
        base_sets = self._base_sets
        huge_sets = self._huge_sets
        nbase = self._nbase
        nhuge = self._nhuge
        plru = self._plru
        if plru:
            b_way_of, b_bits, b_keep, b_setm = self._base_plru
            h_way_of, h_bits, h_keep, h_setm = self._huge_plru
        miss_level = HitLevel.MISS
        cycles = 0
        walks = 0
        fast_huge = 0
        slow = 0
        #: accesses that took the full path (repeat counts included)
        slow_units = 0
        for i, vpn in enumerate(stream.vpns[start:end].tolist()):
            base_set = vpn % nbase
            if plru:
                way = b_way_of[base_set].get(vpn)
                if way is not None:
                    # Live L1-4K hit under PLRU: the real path's only
                    # state change is this masked tree touch.
                    b_bits[base_set] = (
                        (b_bits[base_set] & b_keep[way]) | b_setm[way]
                    )
                    continue
            else:
                entries = base_sets[base_set]
                size = entries.get(vpn)
                if size is not None:
                    # Live L1-4K hit. The real path's only state change
                    # is this LRU refresh; a 4KB entry is filled by a
                    # prior access to this exact vpn, so the seen-set
                    # already has it.
                    del entries[vpn]
                    entries[vpn] = size
                    continue
            # Once a VPN has faulted in it stays mapped (promotion
            # preserves mapped-ness), so a per-process seen-set avoids
            # a page-table probe per record.
            if vpn not in seen:
                seen.add(vpn)
                vaddr = vpn << BASE_PAGE_SHIFT
                if not is_mapped(vaddr):
                    fault(pid, vaddr)
            # The L1-4K probe above missed silently (the hierarchy only
            # counts a 4K miss after all L1 structures fail), matching
            # the real probe order: 4K first, then 2M.
            huge_tag = vpn >> _HUGE_SHIFT
            huge_set = huge_tag % nhuge
            if plru:
                way = h_way_of[huge_set].get(huge_tag)
                if way is not None:
                    h_bits[huge_set] = (
                        (h_bits[huge_set] & h_keep[way]) | h_setm[way]
                    )
                    fast_huge += 1
                    continue
            else:
                hentries = huge_sets[huge_set]
                hsize = hentries.get(huge_tag)
                if hsize is not None:
                    # Live L1-2M hit with its LRU refresh.
                    del hentries[huge_tag]
                    hentries[huge_tag] = hsize
                    fast_huge += 1
                    continue
            repeat = counts[i]
            slow += 1
            slow_units += repeat
            step_cycles, level = translate(vpn, page_table, repeat)
            cycles += step_cycles
            if level is miss_level:
                walks += 1
                if walk_log is not None:
                    walk_log.append((vpn, step_cycles - l1_hit * (repeat - 1),
                                     int(cum[start + i] - cum[start])))
        accesses = int(cum[end] - cum[start])
        fast_units = accesses - slow_units
        fast_base = end - start - slow - fast_huge
        cycles += l1_hit * fast_units
        self._pending_base_records += fast_base
        self._pending_huge_records += fast_huge
        self._pending_accesses += fast_units
        self.fast_hits += fast_base + fast_huge
        self.slow_records += slow
        return end, accesses, cycles, walks

    # ------------------------------------------------------------------
    # the columnar epoch tier

    @classmethod
    def run_epoch(cls, pipelines, slots, ends, tables, charge_faults,
                  note_walks=None):
        """Retire one planned round-robin span in one array pass.

        ``slots`` are the span's live slots in scheduler order,
        ``pipelines`` their cores' pipelines, ``tables`` the page tables
        by pid, and ``ends[k]`` slot k's cursor after each planned round
        (``Machine._columnar_span``). Faults fire first, in the scalar
        loop's (round, slot) order; adjacent windows of one slot merge,
        so a lone slot takes one pre-pass, and ``charge_faults(slot)``
        follows each window. Then the whole span classifies at once
        against every core (:meth:`_epoch_classify`), each process gets
        one page-table pass in scalar walk order, and every core
        commits (:meth:`_epoch_finish`). Returns one ``(cursor,
        accesses, translation_cycles, walks)`` tuple per slot, or None
        when the caller must replay the plan through the quantum tiers:
        a tree-PLRU span, or a span the classifier declines (L2
        aliasing the model cannot license, a fill shape it does not
        cover, or an unmapped hole whose walk must raise the scalar
        path's error). Only the faults have happened then; the decline
        counts on the first slot that declines on its own.

        In an observed run ``note_walks(slot, vpns, cycles, offsets)``
        receives a committed span's walks slot by slot: their VPNs,
        planned walk cycles, and each walking record's retired accesses
        since span start in the scalar loop's (round, slot) order.
        """
        for k, start, end in _fault_windows(slots, ends):
            slot = slots[k]
            pipelines[k]._epoch_faults(slot, start, end, tables[slot.pid])
            charge_faults(slot)
        if pipelines[0]._plru:
            # The classifier proves hits against exact-LRU stack depths;
            # no such closed form exists for tree-PLRU.
            pipelines[0].columnar_plru_fallbacks += 1
            return None

        span = cls._epoch_classify(pipelines, slots, ends, tables)
        if span is None:
            last = len(slots) - 1
            k = next((k for k in range(last) if cls._epoch_classify(
                pipelines[k:k + 1], slots[k:k + 1], ends[k:k + 1], tables
            ) is None), last)
            pipelines[k].columnar_fallbacks += 1
            return None

        # ---- page-table accessed bits: one merged pass per process, in
        # scalar walk order (round, then round-robin position, then
        # program order within the slot). Row k of ``round_ends`` holds
        # slot k's round ends as span record positions; flattened it is
        # sorted, so one search finds every walk's round.
        nslots = len(slots)
        rounds = len(ends[0])
        round_ends = (np.asarray(ends) - np.asarray(span.starts)[:, None]
                      + span.offsets[:-1, None]).ravel()
        walk_slots = span.walk_slots
        walk_round = (np.searchsorted(round_ends, span.walk_pos, side="right")
                      - walk_slots * rounds)
        scalar_order = np.argsort(walk_round * nslots + walk_slots,
                                  kind="stable")
        pid_of_walk = np.asarray([slot.pid for slot in slots])[walk_slots]
        span.walk_pud = np.empty(walk_slots.size, dtype=bool)
        span.walk_pmd = np.empty(walk_slots.size, dtype=bool)
        for pid, table in tables.items():
            order = scalar_order[pid_of_walk[scalar_order] == pid]
            span.walk_pud[order], span.walk_pmd[order] = (
                residue.page_table_pass(table, span.walk_vpns[order],
                                        span.walk_sizes[order])
            )
        if note_walks is not None:
            _span_walk_offsets(span, slots, ends, walk_round, note_walks)
        return cls._epoch_finish(pipelines, span)

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
        # Drop the records of pages this slot already saw before
        # sorting; the survivors keep program order.
        pr_w = slot.stream.page_ridx[start:end]
        pr_w = pr_w[~seen_np[pr_w]]
        if not pr_w.size:
            return
        cand, first_pos = np.unique(pr_w, return_index=True)
        # the window's new pages in first-occurrence order
        first_touched = slot.stream.page_tags[
            cand[np.argsort(first_pos, kind="stable")]
        ].tolist()
        seen = slot.seen
        is_mapped = page_table.is_mapped
        bulk = slot.bulk_fault
        if bulk is not None:
            vaddrs: list[int] = []
            append = vaddrs.append
            for vpn in first_touched:
                if vpn not in seen:
                    seen.add(vpn)
                    vaddr = vpn << BASE_PAGE_SHIFT
                    if not is_mapped(vaddr):
                        append(vaddr)
            if vaddrs:
                bulk(slot.pid, vaddrs)
                self.columnar_faults_batched += len(vaddrs)
        else:
            fault = slot.fault
            for vpn in first_touched:
                if vpn not in seen:
                    seen.add(vpn)
                    vaddr = vpn << BASE_PAGE_SHIFT
                    if not is_mapped(vaddr):
                        fault(slot.pid, vaddr)
                        self.columnar_faults_scalar += 1
        seen_np[cand] = True

    @classmethod
    def _epoch_classify(cls, pipelines, slots, ends, tables):
        """Phases B–C plus residue planning for a whole span, read-only.

        The slots' windows join in scheduler order into one span stream,
        each record tagged with its slot. Region states, L1-4K/L1-2M
        classification, then the residue pipeline: the unified L2 and
        the 1GB L1 as two more classified LRU streams, the live-walk
        subset, and the vectorized walker cost plan. Each structure is
        one classifier call over every core's sets, and one alias check
        covers every core's L2 (tags keyed by core); the span gates (one
        slot per core, no shared PCC across slots) keep every (core,
        set) stream private, so a lone slot is simply the one-slot case.
        Mutates nothing; returns a :class:`_SpanContext`, or None when
        some slot's window must replay through the quantum tiers.

        The residue identities mirror the scalar probe sequence
        (``TLBHierarchy.lookup`` → walker → fill): a 4K-backed record
        probes/fills the L2 at its VPN; a huge-backed record at its
        region tag when the L2 serves 2MB entries (else it walks); a
        1GB-backed record probes the 1GB L1 (hit refresh or post-walk
        fill — outcome-independent, so one classification pass is
        exact). The silent L2 probes the scalar lookup also performs
        (a 4K VPN for a huge/1GB-backed record, a 2MB tag for a
        4K/1GB-backed one) are guaranteed misses — LRU-inert — exactly
        when :func:`residue.l2_alias_conflict` clears the span.
        """
        # ---- phase B: post-fault region states, slot by slot.
        starts = [slot.cursor for slot in slots]
        stops = [slot_ends[-1] for slot_ends in ends]
        rec_states = []
        for slot, start, stop in zip(slots, starts, stops):
            rr_w = slot.stream.region_ridx[start:stop]
            region_tags = slot.stream.region_tags
            touched = np.zeros(region_tags.size, dtype=bool)
            touched[rr_w] = True
            uqr = np.flatnonzero(touched)
            page_table = tables[slot.pid]
            states = [_region_mapping_state(page_table, tag)
                      for tag in region_tags[uqr].tolist()]
            if _REGION_EMPTY in states:
                # An unmapped hole: its walk must raise the scalar path's
                # PageTableError at the exact access, so replay the span.
                return None
            region_state = np.empty(region_tags.size, dtype=np.int8)
            region_state[uqr] = states
            rec_states.append(region_state[rr_w])
        rec_state = _span_cat(rec_states)
        lengths = [stop - start for start, stop in zip(starts, stops)]
        offsets = np.zeros(len(slots) + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        slot_of = np.repeat(np.arange(len(slots)), lengths)

        def window(columns):
            """The slots' windows of one column each, joined."""
            return _span_cat([column[start:stop] for column, start, stop
                              in zip(columns, starts, stops)])

        vpns = window([slot.stream.vpns for slot in slots])
        counts = window([slot.stream.counts for slot in slots])

        # ---- phase C: exact LRU classification per suppressed L1. Every
        # core shares one geometry, so one modulo gives each touch its
        # set in its own core's structure (the modulo stays in uint64: a
        # mixed uint64/int64 operand would promote to float64).
        tlbs = [pipeline.core.tlb for pipeline in pipelines]
        base_idx = np.flatnonzero(rec_state == _REGION_BASE)
        huge_idx = np.flatnonzero(rec_state == _REGION_HUGE)
        hit_mask = np.zeros(vpns.size, dtype=bool)
        base = huge = None
        if base_idx.size:
            b_tags = vpns[base_idx]
            base = _classify_sets(
                [tlb.l1_base for tlb in tlbs], slot_of[base_idx],
                (b_tags % np.uint64(pipelines[0]._nbase)).astype(np.intp),
                b_tags,
            )
            hit_mask[base_idx[base.hits]] = True
        if huge_idx.size:
            h_tags = vpns[huge_idx] >> np.uint64(_HUGE_SHIFT)
            huge = _classify_sets(
                [tlb.l1_huge for tlb in tlbs], slot_of[huge_idx],
                (h_tags % np.uint64(pipelines[0]._nhuge)).astype(np.intp),
                h_tags,
            )
            hit_mask[huge_idx[huge.hits]] = True
        res_idx = np.flatnonzero(~hit_mask)

        # ---- the residue as three more classified streams.
        res_vpns = vpns[res_idx]
        res_counts = counts[res_idx]
        res_states = rec_state[res_idx]
        res_slots = slot_of[res_idx]
        is_base = res_states == _REGION_BASE
        is_huge = res_states == _REGION_HUGE
        is_other = ~(is_base | is_huge)
        plan = tlbs[0]._fill_plan
        serves_huge = plan[PageSize.HUGE][2] is not None
        if is_base.any() and plan[PageSize.BASE][2] is None:
            # 4K-backed residue would probe the L2 without ever filling
            # it; the classifier models every miss as a fill.
            return None
        if is_other.any() and plan[PageSize.GIGA][2] is not None:
            # 1GB walks would fill the L2 conditionally on the 1GB-L1
            # outcome, a shape the one-pass model does not cover.
            return None
        l2s = [tlb.l2 for tlb in tlbs]
        l2_n = l2s[0].nsets
        resident_sets, resident = residue.stack_arrays(
            [entries for l2 in l2s for entries in l2.sets]
        )
        other_vpns = res_vpns[is_other]
        if residue.l2_alias_conflict(
            resident, res_vpns[is_base], res_vpns[is_huge], other_vpns,
            serves_huge, cores=(resident_sets // l2_n, res_slots[is_base],
                                res_slots[is_huge], res_slots[is_other]),
        ):
            return None

        # Unified L2 stream: 4K records at their VPN, huge-backed ones
        # (when served) at their region tag, merged in program order.
        l2_rows = (np.flatnonzero(is_base | is_huge) if serves_huge
                   else np.flatnonzero(is_base))
        l2 = l2_fills = None
        if l2_rows.size:
            kind_huge = is_huge[l2_rows]
            sel = res_vpns[l2_rows]
            l2_tags = np.where(kind_huge, sel >> np.uint64(_HUGE_SHIFT), sel)
            l2 = _classify_sets(
                l2s, res_slots[l2_rows],
                (l2_tags % np.uint64(l2_n)).astype(np.intp), l2_tags,
            )
            l2_fills = np.where(kind_huge, plan[PageSize.HUGE][3],
                                plan[PageSize.BASE][3])

        # 1GB L1 stream: every 1GB-backed record touches it.
        giga_rows = np.flatnonzero(is_other)
        giga = None
        if giga_rows.size:
            gigas = [tlb.l1_giga for tlb in tlbs]
            g_tags = other_vpns >> np.uint64(_GIGA_SHIFT_FULL)
            giga = _classify_sets(
                gigas, res_slots[giga_rows],
                (g_tags % np.uint64(gigas[0].nsets)).astype(np.intp), g_tags,
            )

        # Live-walk subset, program order: classified L2 misses,
        # huge-backed records the L2 cannot serve, 1GB-L1 misses.
        walk_mask = np.zeros(res_idx.size, dtype=bool)
        if l2 is not None:
            walk_mask[l2_rows[~l2.hits]] = True
        if not serves_huge:
            walk_mask[is_huge] = True
        if giga is not None:
            walk_mask[giga_rows[~giga.hits]] = True
        walk_idx = np.flatnonzero(walk_mask)

        slot_ids = np.arange(len(slots) + 1)
        span = _SpanContext()
        span.starts = starts
        span.stops = stops
        span.offsets = offsets
        span.window_units = [
            int(slot.stream.cum[stop] - slot.stream.cum[start])
            for slot, start, stop in zip(slots, starts, stops)
        ]
        span.hit_units = _segment_sums(np.where(hit_mask, counts, 0), offsets)
        span.base = base
        span.huge = huge
        span.l2 = l2
        span.giga = giga
        span.res_counts = res_counts
        span.res_bounds = np.searchsorted(res_slots, slot_ids)
        span.l2_rows = l2_rows
        span.l2_fills = l2_fills
        span.giga_rows = giga_rows
        span.walk_vpns = res_vpns[walk_idx]
        span.walk_sizes = (res_states[walk_idx] - 1).astype(np.int8)
        span.walk_repeats = res_counts[walk_idx]
        span.walk_pos = res_idx[walk_idx]
        span.walk_slots = res_slots[walk_idx]
        span.walk_bounds = np.searchsorted(span.walk_slots, slot_ids)
        span.walk_plans = residue.plan_walks(
            [pipeline.core.walker for pipeline in pipelines],
            span.walk_vpns, span.walk_sizes, span.walk_slots,
        )
        span.walk_pud = None
        span.walk_pmd = None
        return span

    @classmethod
    def _epoch_finish(cls, pipelines, span: _SpanContext) -> list:
        """Commit a classified span: stats, PCCs, reconstructions.

        Everything the old live-residue loop mutated record-at-a-time
        lands here as array reductions and end-state rebuilds, split
        back per core. Counting identities, from the scalar probe
        sequence: every residue record is exactly one of an L2 hit, a
        1GB-L1 hit, or a live walk; only 1GB-L1 hits are L1 hits (and
        skip the L2 counters); repeats after a record's first access
        always hit L1 (the first access left its translation at MRU).
        Returns one ``(cursor, accesses, cycles, walks)`` per slot.
        """
        nslots = len(pipelines)
        zeros = [0] * nslots
        res_counts = span.res_counts
        n_res = np.diff(span.res_bounds).tolist()
        n_bhit = n_hhit = n_l2hit = l2hit_units = n_ghit = ghit_units = zeros
        if span.base is not None:
            n_bhit = _segment_sums(span.base.hits, span.base.bounds)
        if span.huge is not None:
            n_hhit = _segment_sums(span.huge.hits, span.huge.bounds)
        if span.l2 is not None:
            hits = span.l2.hits
            n_l2hit = _segment_sums(hits, span.l2.bounds)
            l2hit_units = _segment_sums(
                np.where(hits, res_counts[span.l2_rows], 0), span.l2.bounds
            )
        if span.giga is not None:
            hits = span.giga.hits
            n_ghit = _segment_sums(hits, span.giga.bounds)
            ghit_units = _segment_sums(
                np.where(hits, res_counts[span.giga_rows], 0),
                span.giga.bounds,
            )
        walk_bounds = span.walk_bounds
        n_walks = np.diff(walk_bounds).tolist()
        walk_units = _segment_sums(span.walk_repeats, walk_bounds)

        # Deferred PCC admissions, in walk order, one bulk apply per
        # structure and core (nothing reads a PCC mid-epoch; the 2MB and
        # 1GB PCCs are independent and per-structure order is
        # preserved).
        walk_sizes = span.walk_sizes
        pmd_rows = np.flatnonzero(span.walk_pmd
                                  & (walk_sizes != residue.SIZE_GIGA))
        pmd_events = list(zip(
            (span.walk_vpns[pmd_rows] >> np.uint64(_HUGE_SHIFT)).tolist(),
            (walk_sizes[pmd_rows] == residue.SIZE_HUGE).tolist(),
        ))
        pmd_cuts = np.searchsorted(pmd_rows, walk_bounds).tolist()
        pud_rows = np.flatnonzero(span.walk_pud)
        pud_cuts = np.searchsorted(pud_rows, walk_bounds).tolist()
        pud_events = None
        if pipelines[0].core._pcc_1gb_access is not None:
            pud_events = list(zip(
                (span.walk_vpns[pud_rows]
                 >> np.uint64(_GIGA_SHIFT_FULL)).tolist(),
                (walk_sizes[pud_rows] == residue.SIZE_GIGA).tolist(),
            ))

        # ---- phase E: reconstruct every classified structure. No live
        # code touched their dicts since classification, and the final
        # content of a W-way LRU set is the last W distinct tags by
        # last touch.
        tlbs = [pipeline.core.tlb for pipeline in pipelines]
        plan = tlbs[0]._fill_plan
        if span.base is not None:
            _rebuild_sets([tlb.l1_base for tlb in tlbs], span.base,
                          plan[PageSize.BASE][3])
        if span.huge is not None:
            _rebuild_sets([tlb.l1_huge for tlb in tlbs], span.huge,
                          plan[PageSize.HUGE][3])
        if span.l2 is not None:
            _rebuild_sets([tlb.l2 for tlb in tlbs], span.l2, span.l2_fills)
        if span.giga is not None:
            _rebuild_sets([tlb.l1_giga for tlb in tlbs], span.giga,
                          plan[PageSize.GIGA][3])

        multi = nslots > 1
        results = []
        for k, pipeline in enumerate(pipelines):
            core = pipeline.core
            tlbH = core.tlb
            l1_cyc = core._l1_hit_cycles
            hit_units = span.hit_units[k]
            tcyc_d = 0
            if n_walks[k]:
                n_pmd = pmd_cuts[k + 1] - pmd_cuts[k]
                if n_pmd:
                    core.pcc.access_many(
                        pmd_events[pmd_cuts[k]:pmd_cuts[k + 1]])
                n_pud = pud_cuts[k + 1] - pud_cuts[k]
                if n_pud and pud_events is not None:
                    core.pcc_1gb.access_many(
                        pud_events[pud_cuts[k]:pud_cuts[k + 1]])
                walk_plan = span.walk_plans[k]
                residue.apply_walk_plan(core.walker, walk_plan,
                                        pud_candidates=n_pud,
                                        pmd_candidates=n_pmd)
                tcyc_d = (int(walk_plan.cycles.sum())
                          + l1_cyc * (walk_units[k] - n_walks[k]))
            cycles = (
                l1_cyc * hit_units
                + n_l2hit[k] * core._l2_hit_cycles
                + l1_cyc * (l2hit_units[k] - n_l2hit[k])
                + l1_cyc * ghit_units[k]
                + tcyc_d
            )
            l1h_d = ((l2hit_units[k] - n_l2hit[k]) + ghit_units[k]
                     + (walk_units[k] - n_walks[k]))

            # ---- statistics flush. Classified L1 hits ride the pending
            # counters (sync() stays the single flush point); residue
            # counters land directly, exactly as the live calls would.
            pipeline._pending_base_records += n_bhit[k]
            pipeline._pending_huge_records += n_hhit[k]
            pipeline._pending_accesses += hit_units
            tlbH.accesses += n_res[k]
            tlbH._b_stats.misses += n_res[k] - n_ghit[k]
            tlbH._g_stats.hits += n_ghit[k]
            tlbH._l2_stats.hits += n_l2hit[k]
            tlbH._l2_stats.misses += n_walks[k]
            stats = core.stats
            window_units = span.window_units[k]
            stats.accesses += window_units - hit_units
            stats.l1_hits += l1h_d
            stats.l2_hits += n_l2hit[k]
            stats.walks += n_walks[k]
            stats.translation_cycles += tcyc_d
            pipeline.columnar_epochs += 1
            pipeline.columnar_retired += n_bhit[k] + n_hhit[k]
            pipeline.columnar_residue_records += n_res[k]
            pipeline.columnar_l2_retired += n_l2hit[k] + n_ghit[k]
            pipeline.columnar_live_walked += n_walks[k]
            pipeline.columnar_mt_epochs += multi
            length = span.stops[k] - span.starts[k]
            pipeline.columnar_epoch_buckets[min(length.bit_length(), 31)] += 1
            results.append((span.stops[k], window_units, cycles, n_walks[k]))
        return results

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

    def as_metrics(self, prefix: str) -> dict[str, int]:
        """Fast-path counter readings for the metrics registry."""
        values = {f"{prefix}.{name}": getattr(self, name)
                  for name in self.COUNTERS}
        # Epoch-length histogram: power-of-two buckets, emitted sparsely
        # (bucket k holds epochs whose record count has bit_length k).
        for k, count in enumerate(self.columnar_epoch_buckets):
            if count:
                values[f"{prefix}.columnar_epoch_p2_{k:02d}"] = count
        return values


class OsTickDriver:
    """The periodic OS promotion interval (the paper's 30s analogue).

    Counts accesses toward the interval, calls ``promotion_tick(cores,
    ledgers)`` at round boundaries, accumulates promotion/demotion
    totals and the per-interval timelines, and samples the metrics
    registry at every tick so samples align 1:1 with
    ``promotion_timeline``.
    """

    def __init__(
        self,
        kernel: SimulatedKernel,
        interval: int,
        promotion_tick,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.kernel = kernel
        self.interval = interval
        self._promotion_tick = promotion_tick
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
        outcome = self._fire(cores, ledgers)
        self._record(len(outcome.promoted))
        return outcome

    def final_tick(self, cores, ledgers):
        """Trailing tick so short runs don't lose pending candidates."""
        outcome = self._fire(cores, ledgers)
        if outcome.promoted or not self.huge_page_timeline:
            self._record(len(outcome.promoted))
        return outcome

    def _fire(self, cores, ledgers):
        """Run the promotion tick, then count and charge its work."""
        outcome = self._promotion_tick(cores, ledgers)
        self.promotions += len(outcome.promoted)
        self.demotions += len(outcome.demoted)
        if (outcome.promoted or outcome.demoted) and ledgers:
            # promotion runs on one kernel thread; shootdowns hit all cores
            ledgers[0].charge_promotions(
                promotions=len(outcome.promoted),
                shootdown_broadcasts=outcome.shootdowns,
                migrated_pages=outcome.pages_migrated,
                cores=len(ledgers),
            )
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
    """One simulated machine: scheduler, pipelines, fault entry, ticks.

    The composition root and the only engine object: every experiment,
    benchmark and the offline replay construct it (also under its
    ``Simulator`` name) and call :meth:`run`. ``tier`` names one of
    :data:`ENGINE_TIERS`. A subclass that feeds the kernel other
    candidates overrides :meth:`tick_candidates`
    (``repro.engine.offline``).
    """

    def __init__(
        self,
        config: SystemConfig,
        policy: HugePagePolicy = HugePagePolicy.PCC,
        params: KernelParams | None = None,
        fragmentation: float = 0.0,
        thread_quantum: int = 2048,
        serialization_cycles_per_access: float = 0.0,
        tier: str = "columnar",
        validate: bool = False,
    ) -> None:
        self.config = config
        self.policy = policy
        # Runtime invariant checking (repro.validation.invariants). The
        # monitor is built lazily in run(); when off, the only cost on
        # the run loop is a few `is not None` tests per OS tick.
        self.validate = validate
        self.monitor = None
        # Observability (repro.obs): a run is observed iff a tracer is
        # active or REPRO_OBS requests it, decided once per run.
        self.obs: RunObserver | None = None
        self.kernel = SimulatedKernel(
            config, policy=policy, params=params, fragmentation=fragmentation
        )
        if thread_quantum < 1:
            # an empty quantum window retires nothing: the run would spin
            raise ValueError(
                f"thread_quantum must be at least 1, got {thread_quantum}")
        self.thread_quantum = thread_quantum
        self.serialization_cycles_per_access = serialization_cycles_per_access
        self.tier = _checked_tier(tier)
        self.dump_region = DumpRegion()
        self.cores: list[Core] = []
        self.pipelines: list[TranslationPipeline] = []
        self.ledgers: list[CycleAccounting] = []
        #: core id -> the process whose thread is pinned there
        self._core_pid_map: dict[int, int] = {}

    # ------------------------------------------------------------------

    def run(self, workloads: list[ProcessWorkload]):
        """Simulate the workloads to completion and return the result."""
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
            TranslationPipeline(core, tier=self.tier)
            for core in self.cores
        ]
        self.ledgers = [CycleAccounting(self.config.timing) for _ in self.cores]

        monitor = None
        if self.validate:
            from repro.validation.invariants import InvariantMonitor

            monitor = InvariantMonitor(self)
        self.monitor = monitor

        with trace_span("machine.bind_threads", cat="engine"):
            scheduler = self._bind_threads(workloads)
        registry = MetricsRegistry()
        self._register_metrics(registry)
        ticks = OsTickDriver(
            self.kernel,
            self.config.os.promote_every_accesses,
            self.promotion_tick,
            registry=registry,
        )
        # Retained for post-run inspection (the validation harness
        # audits final tick accounting against kernel state).
        self.ticks = ticks

        # One observability decision per run. It picks no tier: every
        # hook site guards on `obs` being non-None, so a non-observed
        # run pays a couple of branches per quantum/span/tick and one
        # test per walk (the walk log, see the module docstring).
        obs = RunObserver.for_run(registry)
        self.obs = obs
        walk_log = [] if obs is not None else None
        pipelines = self.pipelines
        for pipeline in pipelines:
            pipeline.walk_log = walk_log

        processes = self.kernel.processes
        walks_by_pid = {pid: 0 for pid in processes}
        columnar = self.tier == "columnar"
        quantum_tier = "scalar" if self.tier == "scalar" else "fast"

        # One progress decision per run, independent of the observer;
        # progress only *reads* counters, so reported runs stay
        # bit-identical to silent ones. When enabled the loop pays one
        # clock check per scheduler round; when disabled, one ``is
        # None`` branch. A snapshot names the tier of the span or round
        # that just ran; the final one names the run's tier.
        prog = progress_for_run(total=scheduler.remaining)
        prog_total = scheduler.remaining

        def report_progress(tier: str, final: bool = False) -> None:
            prog.emit(
                done=prog_total - scheduler.remaining,
                accesses=ticks.total_accesses,
                ticks=len(ticks.promotion_timeline),
                promotions=ticks.promotions,
                epochs=sum(p.columnar_epochs for p in pipelines),
                tier=tier,
                final=final,
            )

        with trace_span("machine.sim_loop", cat="engine",
                        policy=self.policy.value, cores=len(self.cores)):
            while scheduler.remaining > 0:
                ran = columnar and self._columnar_span(
                    scheduler, ticks, walks_by_pid)
                if not ran:
                    self._replay_rounds(scheduler, 1, ticks, walks_by_pid)
                    ran = quantum_tier
                if prog is not None and prog.due():
                    report_progress(ran)
                if ticks.due:
                    self._run_tick(ticks, monitor, obs)
                    if monitor is not None:
                        monitor.after_tick(ticks)

        # Final tick so trailing candidates are not lost on short runs.
        self._run_tick(ticks, monitor, obs, final=True)
        if monitor is not None:
            monitor.after_run(ticks)
        run_tier = ("columnar" if any(p.columnar_epochs for p in pipelines)
                    else quantum_tier)
        if prog is not None:
            report_progress(run_tier, final=True)

        with trace_span("machine.collect", cat="engine"):
            result = self._collect(workloads, ticks, walks_by_pid)
            result.metrics = registry.export(
                meta={
                    "policy": self.policy.value,
                    "cores": len(self.cores),
                    "tier": run_tier,
                    "promote_every_accesses": self.config.os.promote_every_accesses,
                    "processes": sorted(processes),
                    "run_id": current_run_id(),
                }
            )
            publish_run(result.metrics)
        return result

    # ------------------------------------------------------------------
    # columnar spans

    def _columnar_span(self, scheduler, ticks, walks_by_pid) -> str | None:
        """Retire one scalar round-robin span as per-core epochs.

        The scalar loop interleaves fixed quanta round-robin over the
        live slots and checks the tick only at round boundaries, so
        between two TLB-mutating events every core's record stream is a
        deterministic function of the plan alone (one live slot is the
        one-slot case of the same rule). Returns None (nothing retired)
        when a slot's window is too short to amortize an epoch or a
        multi-slot gate fails; otherwise the tier that retired the span:
        ``"columnar"`` when it committed as epochs
        (:meth:`TranslationPipeline.run_epoch`), ``"fast"`` when it
        replayed bit-identically through the fast loop after the fault
        pre-pass.
        """
        live = [slot for slot in scheduler.slots
                if slot.live and slot.cursor < slot.length]
        if len(live) > 1 and (
            # One PCC consumes walk admissions from every core in
            # round-interleaved order; per-slot bulk applies would
            # reorder them.
            self.config.pcc.shared
            # Two slots on one core share its TLBs; their probe streams
            # interleave mid-span and cannot be classified independently.
            or len({slot.core_id for slot in live}) < len(live)
        ):
            return None

        # ---- plan the rounds the scalar loop would run before its
        # due-check fires: every round covers every live slot, in
        # round-robin order, one quantum window each
        # (``_ThreadSlot.window_end``, the rule ``run_quantum`` runs).
        # Planning stops once the interval is covered or a slot
        # exhausts (the next scalar round would recompute the live
        # set; the outer loop re-enters and re-plans).
        quantum = self.thread_quantum
        interval_remaining = ticks.interval - ticks.accesses_since_tick
        ends: list[list[int]] = [[] for _ in live]
        total = 0
        while True:
            for slot, slot_ends in zip(live, ends):
                c = slot_ends[-1] if slot_ends else slot.cursor
                nxt = slot.window_end(c, quantum)
                cum = slot.stream.cum
                total += int(cum[nxt] - cum[c])
                slot_ends.append(nxt)
            if total >= interval_remaining or any(
                slot_ends[-1] >= slot.length
                for slot, slot_ends in zip(live, ends)
            ):
                break
        if any(slot_ends[-1] - slot.cursor
               < TranslationPipeline.MIN_EPOCH_RECORDS
               for slot, slot_ends in zip(live, ends)):
            return None

        processes = self.kernel.processes
        ledgers = self.ledgers
        drain = self.kernel.drain_fault_work

        def charge_faults(slot) -> None:
            # a fault window's kernel work, charged like a quantum's
            ledgers[slot.core_id].charge_fault_work(*drain())

        obs = self.obs
        note_walks = (None if obs is None
                      else partial(_note_walks, obs, ticks.total_accesses))
        with trace_span("epoch", cat="engine",
                        tid=CORE_TID_BASE + live[0].core_id, slots=len(live),
                        records=sum(slot_ends[-1] - slot.cursor
                                    for slot, slot_ends in zip(live, ends))):
            results = TranslationPipeline.run_epoch(
                [self.pipelines[slot.core_id] for slot in live], live, ends,
                {slot.pid: processes[slot.pid].page_table for slot in live},
                charge_faults, note_walks,
            )
            if results is None:
                self._replay_rounds(scheduler, len(ends[0]), ticks,
                                    walks_by_pid)
                return "fast"
        for slot, (cursor, accesses, cycles, walks) in zip(live, results):
            scheduler.advance(slot, cursor)
            ledger = ledgers[slot.core_id]
            ledger.charge_translation(cycles)
            ledger.charge_accesses(accesses)
            walks_by_pid[slot.pid] += walks
            ticks.note(accesses)
        return "columnar"

    def _replay_rounds(self, scheduler, rounds: int, ticks,
                       walks_by_pid) -> None:
        """Run ``rounds`` rounds of the scalar round-robin loop.

        Every live slot runs one quantum per round through the quantum
        tiers, charged to its core, with no due check in between. The
        run loop takes one round at a time; a columnar span that must
        replay (tree-PLRU, or a classifier decline) takes its whole
        plan, which already stops where the scalar loop's due-check
        would fire and whose faults have already fired.
        """
        quantum = self.thread_quantum
        pipelines = self.pipelines
        ledgers = self.ledgers
        processes = self.kernel.processes
        drain = self.kernel.drain_fault_work
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        for _ in range(rounds):
            for slot in scheduler.next_round():
                pipeline = pipelines[slot.core_id]
                table = processes[slot.pid].page_table
                base = ticks.total_accesses
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
                walk_log = pipeline.walk_log
                if walk_log:
                    _note_walks(obs, base, slot, *zip(*walk_log))
                    walk_log.clear()
                scheduler.advance(slot, cursor)
                ledger = ledgers[slot.core_id]
                ledger.charge_translation(cycles)
                ledger.charge_accesses(accesses)
                walks_by_pid[slot.pid] += walks
                ticks.note(accesses)
                ledger.charge_fault_work(*drain())

    # ------------------------------------------------------------------
    # observability hooks

    def _run_tick(self, ticks: OsTickDriver, monitor, obs,
                  final: bool = False):
        """One promotion interval, observed or not (due and final paths).

        Sync, invariant pre-sweep, tick. Only observed runs add a
        pre-tick PCC/TLB snapshot, an ``os_tick`` span, the
        tick-duration histogram sample, and promotion-lag samples from
        the tick's outcome.
        """
        start_ns = time.perf_counter_ns() if obs is not None else 0
        self.sync_pipelines()
        if monitor is not None:
            monitor.before_tick()
        tick = ticks.final_tick if final else ticks.tick
        if obs is None:
            return tick(self.cores, self.ledgers)
        self._snapshot_state(obs, ticks)
        with trace_span("os_tick", cat="os", final=final,
                        accesses=ticks.total_accesses):
            outcome = tick(self.cores, self.ledgers)
        obs.note_promotions(outcome.promoted, ticks.total_accesses)
        obs.note_tick((time.perf_counter_ns() - start_ns) / 1000.0)
        return outcome

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
            pid = self._core_pid_map.get(core.core_id)
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

    def _assign_ids(self, workloads: list[ProcessWorkload]) -> None:
        for process in workloads:
            if process.pid < 0:
                process.pid = len(self.kernel.processes) + 1
            self.kernel.spawn(process.layout, pid=process.pid)

    def _bind_threads(self, workloads: list[ProcessWorkload]) -> ThreadScheduler:
        """Pin threads to cores and build the round-robin scheduler.

        Every slot gets its thread's columnar stream (encoded, or loaded
        from the trace cache, on every tier), its process's seen-set and
        the kernel's fault entry points. The bulk one is offered only on the columnar tier
        and only when the kernel's fault path is base-backed regardless
        of VMA state (:attr:`SimulatedKernel.supports_bulk_faults`),
        which is what makes one array pass equal per-fault calls.
        """
        scheduler = ThreadScheduler(self.thread_quantum)
        self._core_pid_map = {}
        cores = len(self.cores)
        next_core = 0
        stream_cache = self._stream_cache()
        kernel = self.kernel
        fault = kernel.handle_fault
        bulk_fault = (kernel.handle_faults_bulk
                      if self.tier == "columnar"
                      and kernel.supports_bulk_faults else None)
        seen_by_pid: dict[int, set[int]] = {}
        for process in workloads:
            seen = seen_by_pid.setdefault(process.pid, set())
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
                scheduler.add(
                    thread.columnar_stream(cache=stream_cache),
                    process.pid,
                    core,
                    seen,
                    fault,
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

    def _register_metrics(self, registry: MetricsRegistry) -> None:
        """Register every stats bag of this machine into the registry."""
        for i, (core, pipeline, ledger) in enumerate(
            zip(self.cores, self.pipelines, self.ledgers)
        ):
            prefix = f"core{i}"

            def provider(core=core, pipeline=pipeline, ledger=ledger,
                         prefix=prefix) -> dict[str, int]:
                values = _stats_metrics(core.stats, prefix)
                tlb = core.tlb
                for structure in (tlb.l1_base, tlb.l1_huge, tlb.l1_giga,
                                  tlb.l2):
                    values.update(
                        structure.stats.as_metrics(
                            f"{prefix}.tlb.{structure.name}"
                        )
                    )
                values.update(_stats_metrics(core.walker.stats,
                                             f"{prefix}.walker"))
                values.update(_stats_metrics(core.pcc.stats, f"{prefix}.pcc"))
                if core.pcc_1gb is not None:
                    values.update(_stats_metrics(core.pcc_1gb.stats,
                                                 f"{prefix}.pcc_1gb"))
                values.update(ledger.as_metrics(f"{prefix}.cycles"))
                values.update(pipeline.as_metrics(f"{prefix}.fastpath"))
                return values

            registry.register(provider)
        registry.register(self.kernel.metrics)

    # ------------------------------------------------------------------
    # the promotion interval

    def promotion_tick(self, cores, ledgers):
        """Fig. 4: dump PCCs, let the kernel promote, apply shootdowns."""
        records = self.tick_candidates(cores)

        def on_shootdown(pid: int, tag: int, size: PageSize) -> None:
            for core in cores:
                core.shootdown(tag, size)

        with trace_span("tick.promote", cat="os"):
            return self.kernel.promotion_tick(
                pcc_records=records, on_shootdown=on_shootdown
            )

    def tick_candidates(self, cores) -> list[CandidateRecord]:
        """The candidates this tick hands the kernel.

        Under the PCC policy, every core's PCCs through the dump region;
        none under any other policy. A machine fed from elsewhere (the
        offline replay's recorded schedule) overrides this.
        """
        records: list[CandidateRecord] = []
        if self.policy is HugePagePolicy.PCC:
            # §3.3 offers two read styles: the periodic dump-and-clear
            # (Fig. 4) or an on-demand snapshot that leaves counters
            # accumulating across intervals.
            snapshot = self.kernel.params.pcc_dump_mode == "snapshot"
            with trace_span("tick.scan", cat="os"):
                for core in cores:
                    pid = self._core_pid_map.get(core.core_id)
                    if pid is None:
                        continue
                    for pcc, size in ((core.pcc, PageSize.HUGE),
                                      (core.pcc_1gb, PageSize.GIGA)):
                        if pcc is not None:
                            self.dump_region.write(
                                pcc.ranked() if snapshot else pcc.flush(),
                                pid=pid, core=core.core_id, page_size=size,
                            )
            with trace_span("tick.rank", cat="os"):
                records = self.dump_region.read_all()
        return records

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
