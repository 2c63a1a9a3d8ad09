"""Runtime invariant checkers for the simulation engine.

An :class:`InvariantMonitor` attaches to a
:class:`~repro.engine.machine.Machine` built with ``validate=True`` and
re-verifies, immediately before and after every OS promotion tick
(including the trailing final tick), the structural laws the engine's
correctness argument rests on:

- **TLB legality** — no set holds more entries than its ways, and every
  resident entry's stored page-size shift is one the structure serves;
- **PCC counter laws** — frequencies stay within the saturating-counter
  range (the halve-all decay law), occupancy never exceeds capacity,
  and the per-set fill bookkeeping matches the entries actually stored;
- **page-table region-count consistency** — the O(1)
  ``region_base_pages`` counters agree with a full recount of the PTE
  dictionary, promoted regions hold no base pages, and no mapping is
  doubly backed across granularities;
- **statistics conservation** — every access is exactly one of an L1
  hit, an L2 hit, or a walk, per core and across the TLB structure
  counters;
- **frame conservation** — physical memory backs exactly what the page
  tables map: the frames in the HUGE state equal the 2MB leaves plus
  512 per 1GB leaf, and the 4KB pages carved out of partial frames
  equal the mapped PTEs plus the pages fragmentation placed.

The checks walk structures whose sizes are bounded by hardware
capacities (TLB entries, PCC entries) or by the touched footprint
(PTEs), so a tick-granularity cadence keeps the overhead low while
catching violations within one promotion interval of their cause.
When ``validate`` is off the engine pays two ``is not None`` tests per
tick and nothing else.

Violations raise :class:`InvariantViolation` naming the structure, the
core/process, and the law that broke.
"""

from __future__ import annotations

from collections import Counter

from repro.vm.address import (
    BASE_PAGE_SHIFT,
    GIGA_PAGE_SHIFT,
    HUGE_PAGE_SHIFT,
    HUGE_PER_GIGA,
    PageSize,
)

#: 4KB VPN -> 2MB region tag / 2MB tag -> 1GB tag shifts
_HUGE_SHIFT = HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT
_GIGA_SHIFT = GIGA_PAGE_SHIFT - HUGE_PAGE_SHIFT


class InvariantViolation(AssertionError):
    """A semantic invariant of the simulated machine does not hold."""

    def __init__(self, domain: str, detail: str) -> None:
        self.domain = domain
        self.detail = detail
        super().__init__(f"[{domain}] {detail}")


def _fail(domain: str, detail: str) -> None:
    raise InvariantViolation(domain, detail)


#: page-size shifts a TLB structure may store, by what it serves
_VALID_SHIFTS = {int(size.value) for size in PageSize}


class InvariantMonitor:
    """Re-verifies engine/OS invariants at promotion-tick granularity."""

    def __init__(self, machine) -> None:
        self.machine = machine
        #: ticks (plus the final check) this monitor has verified
        self.checks = 0

    # ------------------------------------------------------------------
    # hook points (called by Machine.run)

    def before_tick(self) -> None:
        """Structural sweep right before a promotion tick runs.

        The tick itself destroys evidence: a promotion collapses the
        region's base PTEs (wiping a drifted ``region_base_pages``
        counter along with the PTEs it summarizes) and a ``flush``-mode
        PCC dump clears the very counters whose saturation law is under
        test. Checking after the pipelines sync but before the OS acts
        catches those violations while the broken state is still live.
        Tick-driver accounting is skipped here — the driver's ledgers
        are only consistent *after* the tick they describe.
        """
        self.check_all()

    def after_tick(self, ticks) -> None:
        """Full invariant sweep after one OS promotion tick."""
        self.check_all(ticks)

    def after_run(self, ticks) -> None:
        """Final sweep after the trailing tick, before result collection."""
        self.check_all(ticks)

    def check_all(self, ticks=None) -> None:
        """Run every checker; raises on the first violation."""
        self.checks += 1
        for core in self.machine.cores:
            self.check_tlb(core)
            self.check_pcc(core)
            self.check_stats(core)
        for pid, process in self.machine.kernel.processes.items():
            self.check_page_table(pid, process.page_table)
        self.check_frames()
        if ticks is not None:
            self.check_tick_accounting(ticks)

    # ------------------------------------------------------------------
    # TLB structures

    def check_tlb(self, core) -> None:
        """Set occupancy bounds and entry legality for every structure."""
        tlb = core.tlb
        for structure in (tlb.l1_base, tlb.l1_huge, tlb.l1_giga, tlb.l2):
            ways = structure.config.ways
            served = {int(size.value) for size in structure.config.page_sizes}
            for index, entries in enumerate(structure.sets):
                if len(entries) > ways:
                    _fail(
                        "tlb.occupancy",
                        f"core {core.core_id} {structure.name} set {index} "
                        f"holds {len(entries)} entries > {ways} ways",
                    )
                for tag, shift in entries.items():
                    if shift not in _VALID_SHIFTS:
                        _fail(
                            "tlb.entry",
                            f"core {core.core_id} {structure.name} tag "
                            f"{tag:#x} stores invalid page shift {shift}",
                        )
                    if shift not in served:
                        _fail(
                            "tlb.entry",
                            f"core {core.core_id} {structure.name} tag "
                            f"{tag:#x} stores shift {shift} the structure "
                            f"does not serve ({sorted(served)})",
                        )
            occupancy = structure.occupancy()
            if occupancy > structure.config.entries:
                _fail(
                    "tlb.occupancy",
                    f"core {core.core_id} {structure.name} resident "
                    f"{occupancy} > {structure.config.entries} entries",
                )

    # ------------------------------------------------------------------
    # PCC counter laws

    def check_pcc(self, core) -> None:
        structures = [("pcc", core.pcc)]
        if core.pcc_1gb is not None:
            structures.append(("pcc_1gb", core.pcc_1gb))
        for label, pcc in structures:
            counter_max = pcc.config.counter_max
            if len(pcc) > pcc.capacity:
                _fail(
                    "pcc.capacity",
                    f"core {core.core_id} {label} holds {len(pcc)} "
                    f"entries > capacity {pcc.capacity}",
                )
            fill = Counter()
            for tag, entry in pcc._entries.items():
                if entry.tag != tag:
                    _fail(
                        "pcc.entry",
                        f"core {core.core_id} {label} key {tag:#x} maps "
                        f"to entry tagged {entry.tag:#x}",
                    )
                if not 0 <= entry.frequency <= counter_max:
                    _fail(
                        "pcc.counter",
                        f"core {core.core_id} {label} tag {tag:#x} "
                        f"frequency {entry.frequency} outside "
                        f"[0, {counter_max}] (saturation/decay law broken)",
                    )
                if entry.last_use > pcc._tick:
                    _fail(
                        "pcc.lru",
                        f"core {core.core_id} {label} tag {tag:#x} "
                        f"last_use {entry.last_use} is in the future "
                        f"(tick {pcc._tick})",
                    )
                fill[tag % pcc._sets] += 1
            for set_index, count in fill.items():
                if count > pcc._ways:
                    _fail(
                        "pcc.associativity",
                        f"core {core.core_id} {label} set {set_index} "
                        f"holds {count} entries > {pcc._ways} ways "
                        f"(eviction skipped a full set)",
                    )
            recorded = {s: n for s, n in pcc._set_fill.items() if n}
            if recorded != dict(fill):
                _fail(
                    "pcc.bookkeeping",
                    f"core {core.core_id} {label} set-fill record "
                    f"{recorded} disagrees with entries {dict(fill)}",
                )

    # ------------------------------------------------------------------
    # page tables

    def check_page_table(self, pid: int, table) -> None:
        """O(1) region counters must agree with a full PTE recount."""
        recount = Counter()
        for page in table._ptes:
            recount[page >> _HUGE_SHIFT] += 1
        stored = {p: n for p, n in table._base_count.items() if n}
        if stored != dict(recount):
            drift = {
                prefix: (stored.get(prefix, 0), recount.get(prefix, 0))
                for prefix in set(stored) | set(recount)
                if stored.get(prefix, 0) != recount.get(prefix, 0)
            }
            _fail(
                "pagetable.region_count",
                f"pid {pid}: region_base_pages counters drifted from the "
                f"PTE dict at regions {{prefix: (counter, actual)}} = "
                f"{ {hex(k): v for k, v in sorted(drift.items())} }",
            )
        for prefix in table.promoted_regions():
            if recount.get(prefix):
                _fail(
                    "pagetable.double_backing",
                    f"pid {pid}: promoted 2MB region {prefix:#x} still "
                    f"holds {recount[prefix]} base PTEs",
                )
            if table.is_promoted(prefix >> _GIGA_SHIFT, PageSize.GIGA):
                _fail(
                    "pagetable.double_backing",
                    f"pid {pid}: 2MB region {prefix:#x} promoted under "
                    f"promoted 1GB region {prefix >> _GIGA_SHIFT:#x}",
                )
        for giga in table.promoted_regions(PageSize.GIGA):
            pages_under = sum(
                n
                for prefix, n in recount.items()
                if prefix >> _GIGA_SHIFT == giga
            )
            if pages_under:
                _fail(
                    "pagetable.double_backing",
                    f"pid {pid}: promoted 1GB region {giga:#x} still "
                    f"covers {pages_under} base PTEs",
                )

    # ------------------------------------------------------------------
    # physical frames

    def check_frames(self) -> None:
        """Physical memory holds exactly what the page tables map."""
        physmem = self.machine.kernel.physmem
        tables = [p.page_table for p in self.machine.kernel.processes.values()]
        leaf_frames = sum(
            len(t.promoted_regions())
            + HUGE_PER_GIGA * len(t.promoted_regions(PageSize.GIGA))
            for t in tables
        )
        if physmem.huge_frames_in_use() != leaf_frames:
            _fail(
                "frames.huge",
                f"{physmem.huge_frames_in_use()} HUGE frames != {leaf_frames}"
                f" backing the 2MB leaves and {HUGE_PER_GIGA} per 1GB leaf",
            )
        backed = sum(t.mapped_base_page_count() for t in tables)
        placed = physmem.stats.fragment_pages
        if physmem.base_pages_in_use() != backed + placed:
            _fail(
                "frames.base",
                f"{physmem.base_pages_in_use()} base pages in use != "
                f"{backed} mapped PTEs + {placed} placed by fragmentation",
            )

    # ------------------------------------------------------------------
    # statistics conservation

    def check_stats(self, core) -> None:
        """Access partition laws (requires pipelines to be synced).

        The monitor runs right after ``Machine.sync_pipelines``, so the
        batched fast-hit counters have been flushed and the canonical
        bags must balance exactly.
        """
        stats = core.stats
        partition = stats.l1_hits + stats.l2_hits + stats.walks
        if stats.accesses != partition:
            _fail(
                "stats.partition",
                f"core {core.core_id}: accesses {stats.accesses} != "
                f"l1_hits {stats.l1_hits} + l2_hits {stats.l2_hits} + "
                f"walks {stats.walks}",
            )
        tlb = core.tlb
        l1_hits = (
            tlb.l1_base.stats.hits
            + tlb.l1_huge.stats.hits
            + tlb.l1_giga.stats.hits
        )
        probes = l1_hits + tlb.l2.stats.hits + tlb.l2.stats.misses
        if tlb.accesses != probes:
            _fail(
                "stats.tlb_partition",
                f"core {core.core_id}: hierarchy accesses {tlb.accesses} "
                f"!= L1 hits {l1_hits} + L2 hits {tlb.l2.stats.hits} + "
                f"L2 misses {tlb.l2.stats.misses}",
            )
        if tlb.l1_base.stats.misses != tlb.l2.stats.accesses:
            _fail(
                "stats.tlb_partition",
                f"core {core.core_id}: L1 miss count "
                f"{tlb.l1_base.stats.misses} != L2 probe count "
                f"{tlb.l2.stats.accesses}",
            )

    def check_tick_accounting(self, ticks) -> None:
        """The tick driver's access ledger must match the cores' sum."""
        total = sum(core.stats.accesses for core in self.machine.cores)
        if ticks.total_accesses != total:
            _fail(
                "ticks.accounting",
                f"tick driver counted {ticks.total_accesses} accesses "
                f"but cores retired {total}",
            )
        # Every recorded tick logs its promotion count and the final
        # tick is only unrecorded when it promoted nothing, so at both
        # hook points the timeline and the running total agree exactly.
        timeline_promotions = sum(n for _, n in ticks.promotion_timeline)
        if timeline_promotions != ticks.promotions:
            _fail(
                "ticks.accounting",
                f"promotion timeline records {timeline_promotions} "
                f"promotions but the driver counted {ticks.promotions}",
            )
        if len(ticks.huge_page_timeline) != len(ticks.promotion_timeline):
            _fail(
                "ticks.accounting",
                f"huge-page timeline length "
                f"{len(ticks.huge_page_timeline)} != promotion timeline "
                f"length {len(ticks.promotion_timeline)}",
            )
