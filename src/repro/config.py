"""System configuration for the PCC reproduction.

The defaults mirror Table 2 of the paper (Intel Xeon E5-2667 v3 TLB
organization, 128-entry fully-associative per-core PCC with 8-bit
frequency counters, up to 128 promotions per interval). Benchmarks use
:func:`scaled_config` — smaller TLBs and shorter intervals — so that
laptop-sized traces sit in the same footprint-to-TLB-coverage regime as
the paper's multi-GB workloads on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.vm.address import PageSize


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of one TLB structure.

    ``associativity=0`` denotes full associativity (one set spanning
    every entry), matching the paper's notation for the L1 2MB I-TLB.

    ``replacement`` selects the per-set victim policy: ``"lru"`` (true
    LRU, the model's historical default) or ``"plru"`` (tree
    pseudo-LRU, the policy real translation hardware such as Ariane's
    TLBs implements — see ``repro.tlb.plru``).
    """

    entries: int
    associativity: int
    page_sizes: tuple[PageSize, ...]
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(f"TLB must have at least 1 entry, got {self.entries}")
        ways = self.entries if self.associativity == 0 else self.associativity
        if ways < 0:
            raise ValueError(f"negative associativity: {self.associativity}")
        if self.entries % ways != 0:
            raise ValueError(
                f"{self.entries} entries not divisible into {ways}-way sets"
            )
        if not self.page_sizes:
            raise ValueError("a TLB must serve at least one page size")
        if self.replacement not in ("lru", "plru"):
            raise ValueError(
                f"unknown TLB replacement policy: {self.replacement!r}"
            )

    @property
    def ways(self) -> int:
        """Effective associativity (full associativity resolved)."""
        return self.entries if self.associativity == 0 else self.associativity

    @property
    def sets(self) -> int:
        """Number of sets."""
        return self.entries // self.ways


@dataclass(frozen=True)
class TLBHierarchyConfig:
    """Two-level data-TLB hierarchy per Table 2 of the paper."""

    l1_base: TLBConfig = TLBConfig(64, 4, (PageSize.BASE,))
    l1_huge: TLBConfig = TLBConfig(32, 4, (PageSize.HUGE,))
    l1_giga: TLBConfig = TLBConfig(4, 4, (PageSize.GIGA,))
    l2: TLBConfig = TLBConfig(1024, 8, (PageSize.BASE, PageSize.HUGE))

    def coverage_bytes(self) -> int:
        """Upper-bound bytes the hierarchy can map with 4KB entries only."""
        return (self.l1_base.entries + self.l2.entries) * PageSize.BASE.bytes

    def with_replacement(self, replacement: str) -> "TLBHierarchyConfig":
        """Copy with every structure's replacement policy swapped.

        The hierarchy enforces one policy across all four structures —
        mixed-policy stacks are not a hardware design point we model.
        The page-walk caches are *not* governed by this knob: they stay
        LRU regardless (see ``repro.tlb.walker``).
        """
        return replace(
            self,
            l1_base=replace(self.l1_base, replacement=replacement),
            l1_huge=replace(self.l1_huge, replacement=replacement),
            l1_giga=replace(self.l1_giga, replacement=replacement),
            l2=replace(self.l2, replacement=replacement),
        )


@dataclass(frozen=True)
class PCCConfig:
    """Promotion candidate cache parameters (§3.2.1).

    The paper's PCC is fully associative with 40-bit 2MB tags and 8-bit
    saturating frequency counters; a smaller companion PCC tracks 1GB
    regions. ``replacement`` selects LFU-with-LRU-tiebreak (the paper's
    choice) or plain LRU (its simpler alternative, evaluated in the
    replacement ablation).
    """

    entries: int = 128
    counter_bits: int = 8
    giga_entries: int = 8
    giga_enabled: bool = False
    replacement: str = "lfu"  # "lfu" (LRU tiebreak) or "lru"
    #: 0 = fully associative (the paper's design: "the PCC can afford
    #: full associativity to avoid all conflict misses"); N > 0 builds
    #: an N-way set-associative variant for the ablation
    associativity: int = 0
    #: one global PCC shared by all cores instead of per-core PCCs —
    #: §3.2.2's design alternative. Only meaningful for single-process
    #: runs (a shared structure cannot attribute tags to processes
    #: without the extra complexity the paper argues against).
    shared: bool = False

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(f"PCC needs at least 1 entry, got {self.entries}")
        if not 1 <= self.counter_bits <= 32:
            raise ValueError(f"counter_bits out of range: {self.counter_bits}")
        if self.giga_entries < 0:
            raise ValueError(f"negative giga_entries: {self.giga_entries}")
        if self.replacement not in ("lfu", "lru"):
            raise ValueError(f"unknown replacement policy: {self.replacement!r}")
        if self.associativity < 0:
            raise ValueError(f"negative associativity: {self.associativity}")
        if self.associativity > 0 and self.entries % self.associativity != 0:
            raise ValueError(
                f"{self.entries} entries not divisible into "
                f"{self.associativity}-way sets"
            )

    @property
    def counter_max(self) -> int:
        """Saturation value of the frequency counters."""
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class WalkerConfig:
    """Page-table walker and page-walk-cache parameters."""

    pwc_enabled: bool = True
    #: entries in each of the PML4/PUD/PMD partial-walk caches
    pwc_entries: int = 32
    #: cycles for one page-table memory reference during a walk
    memory_ref_cycles: int = 40
    #: cycles for a PWC hit replacing a memory reference
    pwc_hit_cycles: int = 2


@dataclass(frozen=True)
class TimingConfig:
    """Cycle model for runtime/speedup estimation (§4's real-system step).

    ``base_cycles_per_access`` stands in for all non-translation work
    (compute, cache hierarchy); translation overheads are added on top,
    so removing page walks produces the paper's speedup shape.
    """

    base_cycles_per_access: int = 14
    l1_tlb_hit_cycles: int = 0
    l2_tlb_hit_cycles: int = 7
    #: charged once per huge-page promotion (copy + mapping update)
    promotion_cycles: int = 60_000
    #: charged per core for each TLB shootdown broadcast
    shootdown_cycles: int = 4_000
    #: charged when greedy THP zeroes a 2MB page at fault time (512x 4KB)
    huge_zero_cycles: int = 25_000
    base_zero_cycles: int = 50
    #: charged per base page moved during memory compaction
    compaction_page_cycles: int = 300


@dataclass(frozen=True)
class OSConfig:
    """Kernel-side policy parameters (§3.3).

    ``promote_every_accesses`` is the simulation analogue of the paper's
    30-second promotion interval, which the authors calibrated from
    observed accesses per second.
    """

    promote_every_accesses: int = 500_000
    #: kernel parameter regions_to_promote: candidates promoted per interval
    regions_to_promote: int = 128
    #: kernel parameter promotion_policy: 0 = round robin, 1 = highest frequency
    promotion_policy: int = 1
    #: kernel parameter promotion_bias_process: pids to prioritize
    promotion_bias_processes: tuple[int, ...] = ()
    demotion_enabled: bool = False
    #: khugepaged-equivalent scan budget (pages per interval), per §5.1
    scan_pages_per_interval: int = 4096


@dataclass(frozen=True)
class SystemConfig:
    """Top-level bundle: one simulated machine."""

    tlb: TLBHierarchyConfig = field(default_factory=TLBHierarchyConfig)
    pcc: PCCConfig = field(default_factory=PCCConfig)
    walker: WalkerConfig = field(default_factory=WalkerConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    os: OSConfig = field(default_factory=OSConfig)
    #: physical memory per NUMA node; frames are 2MB-aligned internally
    memory_bytes: int = 64 << 30
    cores: int = 1

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"need at least one core, got {self.cores}")
        if self.memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be positive: {self.memory_bytes}")

    def with_(self, **overrides) -> "SystemConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **overrides)

    def with_tlb_replacement(self, replacement: str) -> "SystemConfig":
        """Copy with the TLB hierarchy's replacement policy swapped."""
        return replace(self, tlb=self.tlb.with_replacement(replacement))


def paper_config() -> SystemConfig:
    """Table-2-faithful configuration of the evaluation machine."""
    return SystemConfig()


def scaled_config(
    *,
    cores: int = 1,
    pcc_entries: int = 32,
    memory_bytes: int = 768 << 20,
    promote_every_accesses: int = 60_000,
    regions_to_promote: int = 8,
) -> SystemConfig:
    """Laptop-scale configuration used by the benchmark harness.

    TLB reach shrinks by 8x relative to Table 2 so that workloads tens
    of MB in footprint exercise the same pressure regime as the paper's
    multi-GB inputs against 4MB of L2 TLB reach. The PCC shrinks by the
    same factor, preserving the PCC-capacity-to-footprint ratio.

    Kernel-work costs (promotion copies, zeroing, shootdowns) shrink
    with the run length: the paper's runs span minutes, so a 2MB copy
    is a vanishing fraction of runtime; scaled traces span ~10^7
    cycles, so the absolute constants must shrink to keep the
    *cost share* realistic.
    """
    tlb = TLBHierarchyConfig(
        l1_base=TLBConfig(16, 4, (PageSize.BASE,)),
        l1_huge=TLBConfig(8, 4, (PageSize.HUGE,)),
        l1_giga=TLBConfig(2, 2, (PageSize.GIGA,)),
        l2=TLBConfig(128, 8, (PageSize.BASE, PageSize.HUGE)),
    )
    timing = TimingConfig(
        promotion_cycles=5_000,
        shootdown_cycles=400,
        huge_zero_cycles=4_000,
        base_zero_cycles=10,
        compaction_page_cycles=40,
    )
    return SystemConfig(
        tlb=tlb,
        pcc=PCCConfig(entries=pcc_entries),
        timing=timing,
        os=OSConfig(
            promote_every_accesses=promote_every_accesses,
            regions_to_promote=regions_to_promote,
            # khugepaged/HawkEye scan budget shrinks with the PCC's
            # promotion quota, preserving the paper's scan-starved
            # software baselines (4096 pages/interval against multi-GB
            # footprints): one region per interval at this scale.
            scan_pages_per_interval=512,
        ),
        memory_bytes=memory_bytes,
        cores=cores,
    )


def tiny_config(**overrides) -> SystemConfig:
    """Minimal configuration for unit tests: tiny TLBs, tiny PCC."""
    tlb = TLBHierarchyConfig(
        l1_base=TLBConfig(4, 2, (PageSize.BASE,)),
        l1_huge=TLBConfig(2, 2, (PageSize.HUGE,)),
        l1_giga=TLBConfig(2, 2, (PageSize.GIGA,)),
        l2=TLBConfig(8, 2, (PageSize.BASE, PageSize.HUGE)),
    )
    config = SystemConfig(
        tlb=tlb,
        pcc=PCCConfig(entries=4, giga_entries=2),
        os=OSConfig(promote_every_accesses=64, regions_to_promote=4),
        memory_bytes=64 << 20,
    )
    return config.with_(**overrides) if overrides else config
