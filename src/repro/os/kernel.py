"""The simulated kernel tying memory management together.

:class:`SimulatedKernel` owns per-process page tables, physical memory,
the fault path (base-page or greedy-THP backed), and whichever
promotion machinery the active policy requires: the PCC promotion
engine, HawkEye, or khugepaged. Kernel behaviour is steered through
:class:`KernelParams`, the analogue of the sysfs/sysctl knobs the paper
introduces (``regions_to_promote``, ``promotion_policy``,
``promotion_bias_process``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig
from repro.vm.address import BASE_PAGE_SHIFT, PageSize
from repro.os.hawkeye import HawkEye
from repro.os.physmem import PhysicalMemory
from repro.os.oracle import StaticHugeAllocator
from repro.os.promotion import PromotionEngine, PromotionOutcome
from repro.os.thp import GreedyTHP, Khugepaged
from repro.core.dump import CandidateRecord
from repro.vm.layout import AddressSpaceLayout
from repro.vm.pagetable import PageTable


class HugePagePolicy(enum.Enum):
    """Which promotion machinery the kernel runs."""

    NONE = "none"  # 4KB base pages only (the paper's baseline)
    LINUX_THP = "linux-thp"  # greedy fault-time + khugepaged
    HAWKEYE = "hawkeye"  # software access-coverage scanning
    PCC = "pcc"  # hardware-assisted candidate selection
    IDEAL = "ideal"  # everything backed by huge pages (peak line)
    ORACLE = "oracle"  # profile-guided static allocation (§5.4.2)


@dataclass
class KernelParams:
    """Runtime-tunable kernel parameters (§3.3.1-§3.3.2)."""

    regions_to_promote: int = 128
    promotion_policy: int = 1  # 0 = round robin, 1 = highest frequency
    promotion_bias_processes: tuple[int, ...] = ()
    demotion_enabled: bool = False
    scan_pages_per_interval: int = 4096
    #: lifetime cap on PCC promotions (utility-curve footprint budget)
    promotion_budget_regions: int | None = None
    #: preselected 2MB regions for the ORACLE policy (§5.4.2)
    static_huge_regions: tuple[int, ...] = ()
    #: "flush" dumps-and-clears each PCC per interval (Fig. 4); "snapshot"
    #: reads the ranked contents on demand without clearing
    pcc_dump_mode: str = "flush"


@dataclass
class Process:
    """One simulated process: identity, address space, page table."""

    pid: int
    layout: AddressSpaceLayout
    page_table: PageTable = field(init=False)

    def __post_init__(self) -> None:
        self.page_table = PageTable(pid=self.pid)


class SimulatedKernel:
    """Memory-management kernel for one simulated machine."""

    def __init__(
        self,
        config: SystemConfig,
        policy: HugePagePolicy = HugePagePolicy.PCC,
        params: KernelParams | None = None,
        fragmentation: float = 0.0,
    ) -> None:
        self.config = config
        self.policy = policy
        self.params = params or KernelParams(
            regions_to_promote=config.os.regions_to_promote,
            promotion_policy=config.os.promotion_policy,
            promotion_bias_processes=config.os.promotion_bias_processes,
            demotion_enabled=config.os.demotion_enabled,
            scan_pages_per_interval=config.os.scan_pages_per_interval,
        )
        self.physmem = PhysicalMemory(config.memory_bytes)
        if fragmentation > 0.0:
            self.physmem.fragment(fragmentation)
        self.processes: dict[int, Process] = {}

        greedy = policy in (HugePagePolicy.LINUX_THP, HugePagePolicy.IDEAL)
        self._ideal = policy is HugePagePolicy.IDEAL
        # Linux's fault path does not direct-compact for huge pages
        # (defrag defaults); only the IDEAL bound gets free compaction.
        self._greedy_thp = GreedyTHP(
            self.physmem,
            enabled=greedy,
            allow_compaction=self._ideal,
        )
        self._khugepaged = (
            Khugepaged(
                self.physmem,
                scan_pages_per_interval=self.params.scan_pages_per_interval,
            )
            if policy is HugePagePolicy.LINUX_THP
            else None
        )
        self._hawkeye = (
            HawkEye(
                self.physmem,
                scan_pages_per_interval=self.params.scan_pages_per_interval,
                # HawkEye cannot promote more regions than its scan
                # covered: 4096 pages/interval -> 8 regions (§5.1).
                max_promotions_per_interval=max(
                    1, self.params.scan_pages_per_interval // 512
                ),
            )
            if policy is HugePagePolicy.HAWKEYE
            else None
        )
        self._static = (
            StaticHugeAllocator(
                self.physmem,
                regions=list(self.params.static_huge_regions),
            )
            if policy is HugePagePolicy.ORACLE
            else None
        )
        self._engine = (
            PromotionEngine(
                self.physmem,
                regions_to_promote=self.params.regions_to_promote,
                promotion_policy=self.params.promotion_policy,
                biased_pids=self.params.promotion_bias_processes,
                demotion_enabled=self.params.demotion_enabled,
            )
            if policy is HugePagePolicy.PCC
            else None
        )
        #: fault-time work the timing model charges, reset per query
        self._pending_huge_zeroes = 0
        self._pending_base_zeroes = 0
        self._pending_migrations = 0
        #: cumulative fault-path counters (metrics registry feed)
        self.faults_total = 0
        self.faults_huge_backed = 0
        self.faults_base_backed = 0

    # ------------------------------------------------------------------
    # process management

    def spawn(self, layout: AddressSpaceLayout, pid: int | None = None) -> Process:
        """Register a process with its (pre-built) address-space layout."""
        if pid is None:
            pid = len(self.processes) + 1
        if pid in self.processes:
            raise ValueError(f"pid {pid} already exists")
        process = Process(pid=pid, layout=layout)
        self.processes[pid] = process
        return process

    def page_tables(self) -> dict[int, PageTable]:
        """pid -> page table for every live process."""
        return {pid: proc.page_table for pid, proc in self.processes.items()}

    # ------------------------------------------------------------------
    # fault path

    def handle_fault(self, pid: int, vaddr: int) -> None:
        """First touch of a page: back it per the active policy."""
        process = self.processes[pid]
        vma = process.layout.find(vaddr)
        # Linux only backs VMAs spanning a full huge region; the IDEAL
        # upper bound ignores eligibility (all data huge, §5's peak line).
        eligible = self._ideal or (
            vma is not None and vma.length >= 2 * 1024 * 1024
        )
        if self._static is not None:
            used_huge = self._static.handle_fault(process.page_table, vaddr)
            migrated = 0
        else:
            used_huge, migrated = self._greedy_thp.handle_fault(
                process.page_table, vaddr, region_eligible=eligible
            )
        self.faults_total += 1
        if used_huge:
            self._pending_huge_zeroes += 1
            self._pending_migrations += migrated
            self.faults_huge_backed += 1
        else:
            self._pending_base_zeroes += 1
            self.faults_base_backed += 1

    @property
    def supports_bulk_faults(self) -> bool:
        """Whether every fault is base-backed regardless of VMA state.

        True for the tick-driven policies (NONE, PCC, HAWKEYE): greedy
        fault-time THP is off and no static allocator runs, so
        :meth:`handle_fault` unconditionally carves a 4KB page — which
        is what lets the columnar engine pre-execute a whole epoch's
        first-touch set as one array pass.
        """
        return not self._greedy_thp.enabled and self._static is None

    def handle_faults_bulk(self, pid: int, vaddrs) -> None:
        """Array-batched first-touch faults (base-backed policies only).

        ``vaddrs`` holds distinct unmapped addresses in fault order.
        Exactly equivalent to ``handle_fault(pid, v)`` per address when
        :attr:`supports_bulk_faults` holds: the bump allocator visits
        the same frames, PTE frame tokens replicate the scalar path's
        post-allocation ``stats.base_allocations`` values, and every
        counter advances by the batch size.
        """
        n = len(vaddrs)
        if n == 0:
            return
        process = self.processes[pid]
        physmem = self.physmem
        start = physmem.stats.base_allocations
        physmem.allocate_base_bulk(n)
        pages = np.asarray(vaddrs, dtype=np.int64) >> BASE_PAGE_SHIFT
        frames = np.arange(start + 1, start + n + 1, dtype=np.int64)
        process.page_table.map_base_bulk(pages, frames)
        self._greedy_thp.stats.fault_base += n
        self.faults_total += n
        self.faults_base_backed += n
        self._pending_base_zeroes += n

    def drain_fault_work(self) -> tuple[int, int, int]:
        """(huge_zeroes, base_zeroes, migrated_pages) since last call."""
        work = (
            self._pending_huge_zeroes,
            self._pending_base_zeroes,
            self._pending_migrations,
        )
        self._pending_huge_zeroes = 0
        self._pending_base_zeroes = 0
        self._pending_migrations = 0
        return work

    # ------------------------------------------------------------------
    # periodic promotion tick

    def promotion_tick(
        self,
        pcc_records: list[CandidateRecord] | None = None,
        on_shootdown=None,
    ) -> PromotionOutcome:
        """One promotion interval under the active policy.

        For the PCC policy, ``pcc_records`` are the dumped candidates
        of both PCC sizes; other policies ignore them and run their own
        scanners. ``on_shootdown(pid, tag, size)`` is called once per
        promoted, demoted or probed region.
        """
        outcome = PromotionOutcome()
        tables = self.page_tables()
        if self._engine is not None:
            outcome = self._engine.run_interval(
                pcc_records or [],
                tables,
                on_shootdown=on_shootdown,
                budget_regions=self.params.promotion_budget_regions,
            )
        elif self._hawkeye is not None:
            for table in tables.values():
                self._hawkeye.measure_interval(table)
                budget = self.params.promotion_budget_regions
                if budget is not None:
                    room = budget - self._hawkeye.stats.promotions
                    if room <= 0:
                        continue
                    self._hawkeye.max_promotions_per_interval = min(
                        self._hawkeye.max_promotions_per_interval, room
                    )
                for prefix in self._hawkeye.promote_interval(table):
                    outcome.promoted.append(
                        CandidateRecord(
                            pid=table.pid, core=0, tag=prefix, frequency=0
                        )
                    )
                    if on_shootdown is not None:
                        on_shootdown(table.pid, prefix, PageSize.HUGE)
        elif self._khugepaged is not None:
            for table in tables.values():
                for prefix in self._khugepaged.scan_interval(table):
                    outcome.promoted.append(
                        CandidateRecord(
                            pid=table.pid, core=0, tag=prefix, frequency=0
                        )
                    )
                    if on_shootdown is not None:
                        on_shootdown(table.pid, prefix, PageSize.HUGE)
        return outcome

    # ------------------------------------------------------------------
    # reporting

    def metrics(self) -> dict[str, int]:
        """Kernel counter readings for the metrics registry.

        Includes the fault-path counters plus whichever promotion
        machinery the active policy runs (so the key set is stable for
        a fixed policy).
        """
        thp = self._greedy_thp.stats
        out = {
            "kernel.faults.total": self.faults_total,
            "kernel.faults.huge_backed": self.faults_huge_backed,
            "kernel.faults.base_backed": self.faults_base_backed,
            "kernel.thp.fault_huge": thp.fault_huge,
            "kernel.thp.fault_base": thp.fault_base,
            "kernel.thp.fault_huge_failed": thp.fault_huge_failed,
            "kernel.thp.bloat_pages": thp.bloat_pages,
        }
        if self._engine is not None:
            stats = self._engine.stats
            out.update(
                {
                    "kernel.promotion.intervals": stats.intervals,
                    "kernel.promotion.candidates_seen": stats.candidates_seen,
                    "kernel.promotion.promotions": stats.promotions,
                    "kernel.promotion.failures": stats.promotion_failures,
                    "kernel.promotion.demotions": stats.demotions,
                    "kernel.promotion.giga_promotions": stats.giga_promotions,
                    "kernel.promotion.pages_migrated": stats.pages_migrated,
                    "kernel.promotion.shootdowns": stats.shootdowns,
                    "kernel.promotion.bloat_pages": stats.bloat_pages,
                }
            )
        if self._hawkeye is not None:
            stats = self._hawkeye.stats
            out.update(
                {
                    "kernel.hawkeye.intervals": stats.intervals,
                    "kernel.hawkeye.pages_scanned": stats.pages_scanned,
                    "kernel.hawkeye.promotions": stats.promotions,
                    "kernel.hawkeye.failures": stats.promotion_failures,
                }
            )
        if self._khugepaged is not None:
            stats = self._khugepaged.stats
            out.update(
                {
                    "kernel.khugepaged.pages_scanned": stats.khugepaged_pages_scanned,
                    "kernel.khugepaged.promotions": stats.khugepaged_promotions,
                }
            )
        return out

    def total_huge_pages(self) -> int:
        """Huge pages currently installed across all processes."""
        return sum(
            len(proc.page_table.promoted_regions()) for proc in self.processes.values()
        )

    def huge_pages_of(self, pid: int) -> int:
        """Huge pages currently backing one process (Fig. 9 panels)."""
        return len(self.processes[pid].page_table.promoted_regions())
