"""Per-structure diagnostics for simulation runs.

Collects the detailed hardware-state counters a run produces — per-TLB
hit/miss/eviction rates, walker PWC behaviour, PCC operational stats,
kernel memory state — into one report. Useful when a result looks off:
the breakdown shows *where* translations were served and where the
cycles went.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import report
from repro.engine.cpu import Core
from repro.engine.simulation import SimulationResult
from repro.os.kernel import SimulatedKernel
from repro.vm.address import PageSize


@dataclass
class TLBBreakdown:
    """One TLB structure's behaviour over a run."""

    name: str
    hits: int
    misses: int
    evictions: int
    invalidations: int
    occupancy: int

    @property
    def hit_rate(self) -> float:
        """Hits over accesses for this structure."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def tlb_breakdown(core: Core) -> list[TLBBreakdown]:
    """Per-structure counters for one core's hierarchy."""
    out = []
    for tlb in (core.tlb.l1_base, core.tlb.l1_huge, core.tlb.l1_giga,
                core.tlb.l2):
        out.append(
            TLBBreakdown(
                name=tlb.name,
                hits=tlb.stats.hits,
                misses=tlb.stats.misses,
                evictions=tlb.stats.evictions,
                invalidations=tlb.stats.invalidations,
                occupancy=tlb.occupancy(),
            )
        )
    return out


def render_core(core: Core) -> str:
    """Hardware-side diagnostic table for one core."""
    rows = [
        [
            entry.name,
            entry.hits,
            entry.misses,
            report.percent(entry.hit_rate),
            entry.evictions,
            entry.invalidations,
            entry.occupancy,
        ]
        for entry in tlb_breakdown(core)
    ]
    tlb_table = report.format_table(
        ["Structure", "Hits", "Misses", "Hit rate", "Evict", "Inval", "Live"],
        rows,
        title=f"Core {core.core_id} — TLB hierarchy",
    )
    walker = core.walker.stats
    pcc = core.pcc.stats
    lines = [
        tlb_table,
        (
            f"walker: {walker.walks} walks, "
            f"{walker.refs_per_walk:.2f} refs/walk, "
            f"PWC hits {walker.pwc_hits} / misses {walker.pwc_misses}"
        ),
        (
            f"2MB PCC: {pcc.accesses} accesses, {pcc.hits} hits, "
            f"{pcc.insertions} inserts, {pcc.evictions} evicts, "
            f"{pcc.decays} decays, {pcc.invalidations} invalidations"
        ),
    ]
    if core.pcc_1gb is not None:
        giga = core.pcc_1gb.stats
        lines.append(
            f"1GB PCC: {giga.accesses} accesses, {giga.insertions} inserts"
        )
    return "\n".join(lines)


def render_kernel(kernel: SimulatedKernel) -> str:
    """Kernel/memory-side diagnostic summary."""
    memory = kernel.physmem
    lines = [
        "Kernel memory state:",
        (
            f"  frames: {memory.total_frames} total, "
            f"{memory.free_huge_frames()} free, "
            f"{memory.huge_frames_in_use()} huge, "
            f"{memory.compactable_frames()} compactable"
        ),
        (
            f"  allocations: {memory.stats.base_allocations} base pages, "
            f"{memory.stats.huge_allocations} huge "
            f"({memory.stats.huge_failures} failed), "
            f"{memory.stats.compactions} compactions moving "
            f"{memory.stats.pages_migrated} pages"
        ),
    ]
    for pid, process in kernel.processes.items():
        table = process.page_table
        lines.append(
            f"  pid {pid}: {table.mapped_base_page_count()} base PTEs, "
            f"{len(table.promoted_regions())} huge, "
            f"{len(table.promoted_regions(PageSize.GIGA))} giga, "
            f"{table.stats.promotions} promoted / "
            f"{table.stats.demotions} demoted"
        )
    if kernel._engine is not None:
        stats = kernel._engine.stats
        lines.append(
            f"  PCC engine: {stats.promotions} promotions "
            f"({stats.promotion_failures} failed), {stats.demotions} "
            f"demotions, {stats.giga_promotions} giga, "
            f"{stats.candidates_seen} candidates seen over "
            f"{stats.intervals} intervals"
        )
    return "\n".join(lines)


def render_run(result: SimulationResult) -> str:
    """Cycle-level summary of a finished run."""
    lines = [
        f"policy={result.policy} cycles={result.total_cycles:,} "
        f"accesses={result.accesses:,} "
        f"TLB-miss={report.percent(result.walk_rate)}",
    ]
    for index, breakdown in enumerate(result.per_core):
        lines.append(
            f"  core {index}: base={breakdown.base:,} "
            f"translation={breakdown.translation:,} "
            f"kernel={breakdown.kernel:,} "
            f"(translation share {report.percent(breakdown.translation_share)})"
        )
    return "\n".join(lines)
