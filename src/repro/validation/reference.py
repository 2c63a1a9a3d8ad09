"""Hardware-faithful TLB/PTW reference oracle (Ariane semantics).

The engine's TLB stack (:mod:`repro.tlb`) is optimized Python: hoisted
bound methods, insertion-ordered dicts standing in for LRU age
matrices, a heap-packed bitmask standing in for the tree-PLRU node
array. Each of those encodings carries a proof obligation, and the
differential tier oracle cannot discharge it — all three engine tiers
(scalar, fast, columnar) share the same structures, so an encoding bug
is invisible to tier-vs-tier comparison.

This module is the independent witness: a from-scratch model of the
same hardware written the way an RTL reference model would be —
explicit way arrays, explicit age counters for true LRU, an explicit
binary tree of node objects for tree-PLRU, and a multi-level page-table
walker with partial-walk caches. It deliberately imports **nothing**
from :mod:`repro.tlb`; even the address-geometry constants are restated
here from the architecture (Sv48/x86-64 radix shifts), so a defect in
the production encodings cannot silently propagate into the model that
is supposed to catch it.

:func:`check_crosscheck` drives the real hierarchy + walker and this
reference with identical address streams derived from a fuzz case
(:mod:`repro.validation.generators`) and cross-checks, per access:

- the hit level and page size the hierarchy answers with,
- the victim tags evicted by every fill (L1 and L2),
- the number of page-table memory references each walk performs,

plus end-of-run per-structure statistics, resident-tag sets, and PWC
hit/miss totals. Divergences raise
:class:`~repro.validation.oracle.ValidationFailure` in the
``reference.*`` domain, so the ddmin shrinker and the corpus pipeline
handle them exactly like tier divergences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.validation.generators import WINDOW_BASE, FuzzCase
from repro.validation.oracle import CaseReport, ValidationFailure

# ----------------------------------------------------------------------
# architecture constants, restated (NOT imported from repro.tlb / vm)

#: byte shifts of the three leaf sizes (4KB / 2MB / 1GB)
_BASE_SHIFT = 12
_HUGE_SHIFT = 21
_GIGA_SHIFT = 30

#: table-index shifts covered by the upper radix levels (PML4/PUD/PMD)
_PWC_LEVEL_SHIFTS = (39, 30, 21)

#: radix levels a walk traverses per leaf size (shift -> level count)
_LEVELS_BY_SHIFT = {_BASE_SHIFT: 4, _HUGE_SHIFT: 3, _GIGA_SHIFT: 2}

#: 4KB pages per 2MB region
_PAGES_PER_REGION = 1 << (_HUGE_SHIFT - _BASE_SHIFT)


# ----------------------------------------------------------------------
# replacement state, modelled the RTL way


class _TreeNode:
    """One node of an explicit tree-PLRU binary tree.

    Internal nodes carry a ``go_right`` direction flag (True = the
    pseudo-LRU victim lives in the right subtree) and a count of backed
    leaves per side; leaves carry their way index (or None when the
    tree is wider than the way count).
    """

    __slots__ = ("left", "right", "parent", "go_right", "backed", "way")

    def __init__(self) -> None:
        self.left = None
        self.right = None
        self.parent = None
        self.go_right = False
        self.backed = 0
        self.way = None


class _PLRUTree:
    """Tree-PLRU over ``ways`` ways, built from linked node objects."""

    def __init__(self, ways: int) -> None:
        self.ways = ways
        width = 1
        while width < ways:
            width *= 2
        leaves = []
        self.root = self._build(width, leaves)
        self.leaves = leaves
        for way, leaf in enumerate(leaves):
            if way < ways:
                leaf.way = way
                node = leaf
                while node is not None:
                    node.backed += 1
                    node = node.parent

    def _build(self, width: int, leaves: list) -> _TreeNode:
        node = _TreeNode()
        if width == 1:
            leaves.append(node)
            return node
        node.left = self._build(width // 2, leaves)
        node.right = self._build(width // 2, leaves)
        node.left.parent = node
        node.right.parent = node
        return node

    def touch(self, way: int) -> None:
        """Point every ancestor away from ``way`` (mark it MRU)."""
        node = self.leaves[way]
        while node.parent is not None:
            # victim direction = the side the touched way is NOT on
            node.parent.go_right = node.parent.left is node
            node = node.parent

    def victim(self) -> int:
        """Follow the direction flags to the pseudo-LRU way."""
        node = self.root
        while node.way is None:
            chosen = node.right if node.go_right else node.left
            if chosen.backed == 0:
                # unbacked subtree (non-power-of-two way counts only):
                # hardware steers to the (always partially backed) left
                chosen = node.left
            node = chosen
        return node.way

    def reset(self) -> None:
        stack = [self.root]
        while stack:
            node = stack.pop()
            node.go_right = False
            if node.left is not None:
                stack.append(node.left)
                stack.append(node.right)


@dataclass
class RefStats:
    """Hit/miss/eviction counters, mirroring the real structures'."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class _Set:
    """One set: explicit way arrays plus per-policy recency state."""

    __slots__ = ("ways", "tags", "sizes", "ages", "tree", "plru")

    def __init__(self, ways: int, plru: bool) -> None:
        self.ways = ways
        self.tags = [None] * ways
        self.sizes = [None] * ways
        self.plru = plru
        if plru:
            self.tree = _PLRUTree(ways)
            self.ages = None
        else:
            self.tree = None
            self.ages = [0] * ways

    def way_of(self, tag: int):
        try:
            return self.tags.index(tag)
        except ValueError:
            return None

    def occupancy(self) -> int:
        return sum(1 for t in self.tags if t is not None)


class RefTLB:
    """Set-associative translation structure, reference semantics.

    Observable contract shared with the production model: ``lookup``
    touches recency on a hit; ``fill`` of a present tag refreshes it;
    a fill into a non-full set takes the lowest-index empty way under
    PLRU (hardware fill-priority encoder) and any empty way under LRU;
    a fill into a full set evicts the policy victim; ``invalidate``
    frees the way without rewinding PLRU direction flags; ``flush``
    clears entries and resets recency state.
    """

    def __init__(self, entries: int, ways: int, replacement: str,
                 name: str = "ref") -> None:
        if ways == 0:
            ways = entries  # full associativity
        self.name = name
        self.ways = ways
        self.nsets = entries // ways
        self.plru = replacement == "plru"
        self._sets = [_Set(ways, self.plru) for _ in range(self.nsets)]
        self.stats = RefStats()
        self._clock = 0

    def _touch(self, line: _Set, way: int) -> None:
        if line.plru:
            line.tree.touch(way)
        else:
            self._clock += 1
            line.ages[way] = self._clock

    def lookup(self, tag: int) -> bool:
        """Probe; refresh recency and count a hit, else count a miss."""
        line = self._sets[tag % self.nsets]
        way = line.way_of(tag)
        if way is None:
            self.stats.misses += 1
            return False
        self._touch(line, way)
        self.stats.hits += 1
        return True

    def hit_quiet(self, tag: int) -> bool:
        """Probe; refresh and count only on a hit (hierarchy L1 mode)."""
        line = self._sets[tag % self.nsets]
        way = line.way_of(tag)
        if way is None:
            return False
        self._touch(line, way)
        self.stats.hits += 1
        return True

    def fill(self, tag: int, size: int):
        """Install ``tag``; return the evicted victim tag, if any."""
        line = self._sets[tag % self.nsets]
        way = line.way_of(tag)
        if way is not None:
            line.sizes[way] = size
            self._touch(line, way)
            return None
        victim = None
        if line.occupancy() >= line.ways:
            if line.plru:
                way = line.tree.victim()
            else:
                way = min(
                    (w for w in range(line.ways)),
                    key=lambda w: line.ages[w],
                )
            victim = line.tags[way]
            self.stats.evictions += 1
        else:
            way = line.tags.index(None)
        line.tags[way] = tag
        line.sizes[way] = size
        self._touch(line, way)
        return victim

    def invalidate(self, tag: int) -> bool:
        line = self._sets[tag % self.nsets]
        way = line.way_of(tag)
        if way is None:
            return False
        line.tags[way] = None
        line.sizes[way] = None
        if not line.plru:
            line.ages[way] = 0
        # PLRU direction flags are deliberately left as-is: hardware
        # does not rewind the tree on a shootdown.
        self.stats.invalidations += 1
        return True

    def flush(self) -> None:
        for line in self._sets:
            self.stats.invalidations += line.occupancy()
            for way in range(line.ways):
                line.tags[way] = None
                line.sizes[way] = None
            if line.plru:
                line.tree.reset()
            else:
                line.ages = [0] * line.ways

    def resident_tags(self) -> set:
        tags: set = set()
        for line in self._sets:
            tags.update(t for t in line.tags if t is not None)
        return tags


# ----------------------------------------------------------------------
# hierarchy + walker reference models


class RefHierarchy:
    """Split L1 (4K/2M/1G) + unified L2, reference semantics.

    Probe order and miss attribution mirror the production hierarchy:
    the three L1 structures probe in size order, a clean L1 miss counts
    once on the 4KB structure, the unified L2 is probed by 4KB tag then
    (when it serves 2MB entries) by region tag, and an L2 hit refills
    the matching L1 structure.
    """

    def __init__(self, tlb_config) -> None:
        c = tlb_config
        replacement = c.l1_base.replacement
        self.l1_base = RefTLB(c.l1_base.entries, c.l1_base.associativity,
                              replacement, "L1-4K")
        self.l1_huge = RefTLB(c.l1_huge.entries, c.l1_huge.associativity,
                              replacement, "L1-2M")
        self.l1_giga = RefTLB(c.l1_giga.entries, c.l1_giga.associativity,
                              replacement, "L1-1G")
        self.l2 = RefTLB(c.l2.entries, c.l2.associativity, replacement, "L2")
        self.l2_serves_huge = any(
            int(size.value) == _HUGE_SHIFT for size in c.l2.page_sizes
        )
        self.accesses = 0

    def lookup(self, vpn: int):
        """Returns ``(level, size_shift)``: ("L1"|"L2"|"MISS", shift)."""
        self.accesses += 1
        if self.l1_base.hit_quiet(vpn):
            return "L1", _BASE_SHIFT
        huge_tag = vpn >> (_HUGE_SHIFT - _BASE_SHIFT)
        if self.l1_huge.hit_quiet(huge_tag):
            return "L1", _HUGE_SHIFT
        giga_tag = vpn >> (_GIGA_SHIFT - _BASE_SHIFT)
        if self.l1_giga.hit_quiet(giga_tag):
            return "L1", _GIGA_SHIFT
        self.l1_base.stats.misses += 1
        if self.l2.hit_quiet(vpn):
            self.l1_base.fill(vpn, _BASE_SHIFT)
            return "L2", _BASE_SHIFT
        if self.l2_serves_huge and self.l2.hit_quiet(huge_tag):
            self.l1_huge.fill(huge_tag, _HUGE_SHIFT)
            return "L2", _HUGE_SHIFT
        self.l2.stats.misses += 1
        return "MISS", None

    def fill(self, vpn: int, size_shift: int):
        """Install a walked translation; returns (l1_victim, l2_victim)."""
        tag = vpn >> (size_shift - _BASE_SHIFT)
        if size_shift == _BASE_SHIFT:
            l1 = self.l1_base
        elif size_shift == _HUGE_SHIFT:
            l1 = self.l1_huge
        else:
            l1 = self.l1_giga
        l1_victim = l1.fill(tag, size_shift)
        l2_victim = None
        if size_shift == _BASE_SHIFT or (
            size_shift == _HUGE_SHIFT and self.l2_serves_huge
        ):
            l2_victim = self.l2.fill(tag, size_shift)
        return l1_victim, l2_victim

    def shootdown_region(self, huge_region: int) -> None:
        first_vpn = huge_region * _PAGES_PER_REGION
        for vpn in range(first_vpn, first_vpn + _PAGES_PER_REGION):
            self.l1_base.invalidate(vpn)
            self.l2.invalidate(vpn)
        self.l1_huge.invalidate(huge_region)
        if self.l2_serves_huge:
            self.l2.invalidate(huge_region)
        self.l1_giga.invalidate(
            huge_region >> (_GIGA_SHIFT - _HUGE_SHIFT)
        )

    def flush(self) -> None:
        for structure in (self.l1_base, self.l1_huge, self.l1_giga, self.l2):
            structure.flush()

    def structures(self):
        return (
            ("L1-4K", self.l1_base),
            ("L1-2M", self.l1_huge),
            ("L1-1G", self.l1_giga),
            ("L2", self.l2),
        )


class RefWalker:
    """Multi-level PTW state machine with partial-walk caches.

    Per upper level, the walk consults a one-entry last-tag register
    and then the level's PWC (a small 4-way LRU cache, regardless of
    the D-TLB replacement knob — real PWCs are LRU); either hit
    replaces that level's page-table memory reference. The leaf PTE is
    always one memory reference.
    """

    def __init__(self, walker_config) -> None:
        self.enabled = walker_config.pwc_enabled
        if self.enabled:
            self.pwcs = [
                RefTLB(walker_config.pwc_entries, 4, "lru", f"PWC-L{4 - i}")
                for i in range(len(_PWC_LEVEL_SHIFTS))
            ]
        else:
            self.pwcs = []
        self.last_tags = [-1] * len(self.pwcs)
        self.pwc_hits = 0
        self.pwc_misses = 0
        self.walks = 0
        self.memory_refs = 0

    def walk(self, vaddr: int, size_shift: int) -> int:
        """One walk for a leaf of ``size_shift``; returns memory refs."""
        levels = _LEVELS_BY_SHIFT[size_shift]
        refs = 0
        for level_index in range(levels - 1):
            if level_index < len(self.pwcs):
                tag = vaddr >> _PWC_LEVEL_SHIFTS[level_index]
                if tag == self.last_tags[level_index]:
                    self.pwc_hits += 1
                    continue
                if self.pwcs[level_index].lookup(tag):
                    self.last_tags[level_index] = tag
                    self.pwc_hits += 1
                    continue
                self.pwc_misses += 1
                self.pwcs[level_index].fill(tag, _BASE_SHIFT)
                self.last_tags[level_index] = tag
            refs += 1
        refs += 1  # the leaf PTE reference always goes to memory
        self.walks += 1
        self.memory_refs += refs
        return refs

    def flush_pwc(self) -> None:
        for pwc in self.pwcs:
            pwc.flush()
        self.last_tags = [-1] * len(self.pwcs)


# ----------------------------------------------------------------------
# the differential harness


@dataclass
class CrosscheckReport:
    """What one clean cross-check covered."""

    case_id: str
    replacement: str
    accesses: int = 0
    walks: int = 0
    fills: int = 0
    flushes: int = 0
    shootdowns: int = 0
    checks: list = field(default_factory=list)


def _interleave(threads: list[list[int]]) -> list[int]:
    """Round-robin merge of the case's per-thread streams.

    The cross-check drives one hierarchy (one core); interleaving keeps
    multi-thread cases meaningful by mixing their locality patterns the
    way a shared structure would see them.
    """
    merged: list[int] = []
    cursors = [0] * len(threads)
    remaining = sum(len(t) for t in threads)
    while remaining:
        for i, thread in enumerate(threads):
            if cursors[i] < len(thread):
                merged.append(thread[cursors[i]])
                cursors[i] += 1
                remaining -= 1
    return merged


def _fail(domain: str, case: FuzzCase, detail: str) -> None:
    raise ValidationFailure(domain, detail, case)


def check_crosscheck(case: FuzzCase) -> CrosscheckReport:
    """Differentially run ``case``'s streams through the production
    TLB/walker stack and the reference model; raise on any divergence.

    The memory layout is derived from the case: every window page is
    base-mapped up front (the cross-check exercises translation
    hardware, not the fault path) and the case's static regions are
    promoted to 2MB, so walks traverse both 4-level and 3-level paths.
    A deterministic event schedule (periods derived from the case seed)
    interleaves full flushes and region shootdowns to exercise
    invalidation semantics on both sides.
    """
    import random

    from repro.tlb.hierarchy import HitLevel, TLBHierarchy
    from repro.tlb.walker import PageTableWalker
    from repro.vm.pagetable import PageTable

    config = case.build_config()
    replacement = config.tlb.l1_base.replacement

    # --- real side
    hierarchy = TLBHierarchy(config.tlb)
    walker = PageTableWalker(config.walker)
    table = PageTable()

    # --- reference side (independent model)
    ref = RefHierarchy(config.tlb)
    ref_walker = RefWalker(config.walker)

    # --- memory layout: all window pages base-mapped, statics promoted
    region_base = WINDOW_BASE >> _HUGE_SHIFT
    frame = 0
    for page in range(case.window_pages):
        table.map_base(WINDOW_BASE + (page << _BASE_SHIFT), frame)
        frame += 1
    promoted = set()
    nregions = max(1, case.window_pages // _PAGES_PER_REGION)
    for region in case.static_regions:
        if region >= nregions:
            continue
        prefix = region_base + region
        table.promote(prefix, frame)
        frame += 1
        promoted.add(prefix)

    def size_of(vpn: int) -> int:
        return _HUGE_SHIFT if (
            vpn >> (_HUGE_SHIFT - _BASE_SHIFT)
        ) in promoted else _BASE_SHIFT

    # --- deterministic event schedule from the case seed
    rng = random.Random(f"crosscheck:{case.seed}")
    flush_every = rng.randrange(150, 400)
    shoot_every = rng.randrange(40, 140)

    stream = _interleave(case.threads)
    report = CrosscheckReport(case_id=case.case_id, replacement=replacement)

    for index, page in enumerate(stream):
        page = page % case.window_pages
        vaddr = WINDOW_BASE + (page << _BASE_SHIFT)
        vpn = vaddr >> _BASE_SHIFT

        if index and index % flush_every == 0:
            hierarchy.flush()
            walker.flush_pwc()
            ref.flush()
            ref_walker.flush_pwc()
            report.flushes += 1
        elif index and index % shoot_every == 0:
            region = vpn >> (_HUGE_SHIFT - _BASE_SHIFT)
            hierarchy.shootdown_region(region)
            ref.shootdown_region(region)
            report.shootdowns += 1

        real = hierarchy.lookup(vpn)
        real_level = real.level.name if real.level is not HitLevel.MISS \
            else "MISS"
        real_size = int(real.page_size.value) if real.page_size else None
        ref_level, ref_size = ref.lookup(vpn)
        if (real_level, real_size) != (ref_level, ref_size):
            _fail(
                "reference.hit_level", case,
                f"access {index} vpn {vpn:#x}: machine answered "
                f"{real_level}/{real_size}, reference expects "
                f"{ref_level}/{ref_size} ({replacement})",
            )
        if real_level != "MISS":
            continue

        refs_before = walker.stats.memory_refs
        walk = walker.walk(vaddr, table)
        real_refs = walker.stats.memory_refs - refs_before
        planned = size_of(vpn)
        walked_size = int(walk.mapping.page_size.value)
        if walked_size != planned:
            _fail(
                "reference.mapping", case,
                f"access {index} vpn {vpn:#x}: page table walked a "
                f"{walked_size}-shift leaf, layout plan says {planned}",
            )
        ref_refs = ref_walker.walk(vaddr, planned)
        if real_refs != ref_refs:
            _fail(
                "reference.walk_refs", case,
                f"access {index} vpn {vpn:#x}: walk made {real_refs} "
                f"memory references, reference PTW expects {ref_refs}",
            )
        report.walks += 1

        victims = hierarchy.fill(vpn, walk.mapping.page_size)
        ref_victims = ref.fill(vpn, planned)
        if victims != ref_victims:
            _fail(
                "reference.victim", case,
                f"access {index} vpn {vpn:#x}: fill evicted "
                f"{tuple(hex(v) if v is not None else None for v in victims)}"
                f", reference {replacement} policy expects "
                f"{tuple(hex(v) if v is not None else None for v in ref_victims)}",
            )
        report.fills += 1

    report.accesses = len(stream)

    # --- end-of-run state must agree structure by structure
    for (name, ref_structure), real_structure in zip(
        ref.structures(),
        (hierarchy.l1_base, hierarchy.l1_huge, hierarchy.l1_giga,
         hierarchy.l2),
    ):
        real_stats = {
            "hits": real_structure.stats.hits,
            "misses": real_structure.stats.misses,
            "evictions": real_structure.stats.evictions,
            "invalidations": real_structure.stats.invalidations,
        }
        if real_stats != ref_structure.stats.snapshot():
            _fail(
                "reference.stats", case,
                f"{name} counters diverged: machine {real_stats}, "
                f"reference {ref_structure.stats.snapshot()}",
            )
        if real_structure.resident_tags() != ref_structure.resident_tags():
            _fail(
                "reference.resident", case,
                f"{name} resident tags diverged: machine "
                f"{sorted(real_structure.resident_tags())[:8]}..., "
                f"reference "
                f"{sorted(ref_structure.resident_tags())[:8]}...",
            )
    if (walker.stats.pwc_hits, walker.stats.pwc_misses) != (
        ref_walker.pwc_hits, ref_walker.pwc_misses
    ):
        _fail(
            "reference.pwc", case,
            f"PWC traffic diverged: machine "
            f"{walker.stats.pwc_hits}/{walker.stats.pwc_misses} "
            f"hits/misses, reference "
            f"{ref_walker.pwc_hits}/{ref_walker.pwc_misses}",
        )
    report.checks.extend(
        ["hit-level", "walk-refs", "victims", "stats", "resident", "pwc"]
    )
    return report


def check_case_or_crosscheck(case: FuzzCase, domain: str | None):
    """Replay dispatcher: ``reference.*`` reproducers re-run through the
    cross-check harness, everything else through the tier oracle."""
    from repro.validation.oracle import check_case

    if domain and domain.startswith("reference."):
        return check_crosscheck(case)
    return check_case(case)


__all__ = [
    "CrosscheckReport",
    "RefHierarchy",
    "RefTLB",
    "RefWalker",
    "check_case_or_crosscheck",
    "check_crosscheck",
]
