"""Set-associative TLB with true-LRU or tree-PLRU replacement.

One :class:`TLB` instance models one hardware structure (e.g. the L1
4KB D-TLB). Tags are region numbers at the structure's page
granularity; each set is an insertion-ordered dict, so true LRU falls
out of Python's dict ordering: a hit deletes and reinserts the tag,
moving it to the most-recently-used position.

With ``TLBConfig.replacement == "plru"`` the structure instead keeps
one tree-PLRU bitmask per set (:mod:`repro.tlb.plru`) plus explicit
way<->tag maps, the organization real hardware TLBs use. The entry
dicts are still maintained (membership only — their order is
meaningless under PLRU) so presence probes, occupancy accounting, and
the invariant monitor work identically for both policies. Observable
PLRU semantics: hits and fills touch the tree; ``probe`` does not;
a fill prefers the lowest-index empty way before consulting the tree;
``invalidate`` frees the way but leaves the direction bits (hardware
does not rewind them); ``flush`` resets both.

This sits on the simulator's hottest path, so the implementation
favors plain ints and direct dict operations; the page size stored per
entry is the :class:`~repro.vm.address.PageSize` *value* (the shift).
The PLRU variants are installed as instance attributes at construction
so the LRU hot path pays nothing for the knob.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TLBConfig
from repro.tlb import plru
from repro.vm.address import PageSize


@dataclass
class TLBStats:
    """Hit/miss/eviction counters for one TLB structure."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        """Total counted probes."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses over counted probes."""
        return self.misses / self.accesses if self.accesses else 0.0

    def as_metrics(self, prefix: str) -> dict[str, int]:
        """Counter readings for the metrics registry, under ``prefix``."""
        return {
            f"{prefix}.hits": self.hits,
            f"{prefix}.misses": self.misses,
            f"{prefix}.evictions": self.evictions,
            f"{prefix}.invalidations": self.invalidations,
        }


class TLB:
    """One set-associative translation structure."""

    def __init__(self, config: TLBConfig, name: str = "tlb") -> None:
        self.config = config
        self.name = name
        self.stats = TLBStats()
        # One ordered dict per set: tag -> page-size shift of the entry.
        # Tags are non-negative, so ``tag % nsets`` equals the bit-mask
        # index for power-of-two set counts — one indexing path serves
        # both geometries.
        self._sets: list[dict[int, int]] = [dict() for _ in range(config.sets)]
        self._nsets = config.sets
        self._ways = config.ways
        self._plru = config.replacement == "plru"
        if self._plru:
            #: per-set tree-PLRU direction bitmask (repro.tlb.plru)
            self._bits = [0] * config.sets
            #: per-set way -> resident tag (-1 = empty way)
            self._way_tags = [[-1] * config.ways for _ in range(config.sets)]
            #: per-set tag -> way (the O(1) probe under PLRU)
            self._way_of: list[dict[int, int]] = [
                dict() for _ in range(config.sets)
            ]
            #: per-way touch masks: touch == (bits & keep[w]) | set[w]
            self._keep, self._setm = plru.touch_masks(config.ways)
            self.lookup = self._lookup_plru
            self.hit_fast = self._hit_fast_plru
            self.fill = self._fill_plru
            self.invalidate = self._invalidate_plru
            self.flush = self._flush_plru

    @property
    def sets(self) -> list[dict[int, int]]:
        """The per-set entry dicts (read-only use: fast-path probing)."""
        return self._sets

    @property
    def nsets(self) -> int:
        """Number of sets (the modulus of :meth:`_set_for`)."""
        return self._nsets

    def _set_for(self, tag: int) -> dict[int, int]:
        return self._sets[tag % self._nsets]

    # The hot methods below index self._sets directly instead of calling
    # _set_for: at ~10^6 probes per simulated quantum the extra method
    # call is measurable.

    def lookup(self, tag: int) -> bool:
        """Probe for ``tag``; refresh LRU position on hit."""
        entries = self._sets[tag % self._nsets]
        size = entries.get(tag)
        if size is None:
            self.stats.misses += 1
            return False
        # Move to MRU position.
        del entries[tag]
        entries[tag] = size
        self.stats.hits += 1
        return True

    def hit_fast(self, tag: int) -> bool:
        """Hot-path probe: refresh LRU and count a hit, but leave miss
        accounting to the caller (the hierarchy attributes misses)."""
        entries = self._sets[tag % self._nsets]
        size = entries.get(tag)
        if size is None:
            return False
        del entries[tag]
        entries[tag] = size
        self.stats.hits += 1
        return True

    def probe(self, tag: int) -> bool:
        """Presence check without touching LRU state or statistics."""
        return tag in self._set_for(tag)

    def fill(self, tag: int, page_size: PageSize | int) -> int | None:
        """Install ``tag``; return the evicted victim tag, if any."""
        size = page_size if type(page_size) is int else int(page_size)
        entries = self._sets[tag % self._nsets]
        if tag in entries:
            del entries[tag]
            entries[tag] = size
            return None
        victim = None
        if len(entries) >= self._ways:
            victim = next(iter(entries))
            del entries[victim]
            self.stats.evictions += 1
        entries[tag] = size
        return victim

    def invalidate(self, tag: int) -> bool:
        """Drop ``tag`` if present (TLB shootdown of one entry)."""
        entries = self._set_for(tag)
        if tag in entries:
            del entries[tag]
            self.stats.invalidations += 1
            return True
        return False

    def flush(self) -> None:
        """Drop every entry (full shootdown / context switch)."""
        for entries in self._sets:
            self.stats.invalidations += len(entries)
            entries.clear()

    # ------------------------------------------------------------------
    # tree-PLRU variants (bound over the defaults in __init__ when
    # config.replacement == "plru"). Touches inline the plru.touch_masks
    # update; plru.victim is always called through the module attribute
    # so defect injection can intercept it.

    def _lookup_plru(self, tag: int) -> bool:
        si = tag % self._nsets
        way = self._way_of[si].get(tag)
        if way is None:
            self.stats.misses += 1
            return False
        bits = self._bits
        bits[si] = (bits[si] & self._keep[way]) | self._setm[way]
        self.stats.hits += 1
        return True

    def _hit_fast_plru(self, tag: int) -> bool:
        si = tag % self._nsets
        way = self._way_of[si].get(tag)
        if way is None:
            return False
        bits = self._bits
        bits[si] = (bits[si] & self._keep[way]) | self._setm[way]
        self.stats.hits += 1
        return True

    def _fill_plru(self, tag: int, page_size: PageSize | int) -> int | None:
        size = page_size if type(page_size) is int else int(page_size)
        si = tag % self._nsets
        entries = self._sets[si]
        way_of = self._way_of[si]
        bits = self._bits
        way = way_of.get(tag)
        if way is not None:
            entries[tag] = size
            bits[si] = (bits[si] & self._keep[way]) | self._setm[way]
            return None
        tags = self._way_tags[si]
        victim = None
        if len(way_of) >= self._ways:
            way = plru.victim(bits[si], self._ways)
            victim = tags[way]
            del entries[victim]
            del way_of[victim]
            self.stats.evictions += 1
        else:
            way = tags.index(-1)
        tags[way] = tag
        way_of[tag] = way
        entries[tag] = size
        bits[si] = (bits[si] & self._keep[way]) | self._setm[way]
        return victim

    def _invalidate_plru(self, tag: int) -> bool:
        si = tag % self._nsets
        way = self._way_of[si].pop(tag, None)
        if way is None:
            return False
        del self._sets[si][tag]
        self._way_tags[si][way] = -1
        self.stats.invalidations += 1
        return True

    def _flush_plru(self) -> None:
        for si, entries in enumerate(self._sets):
            self.stats.invalidations += len(entries)
            entries.clear()
            self._way_of[si].clear()
            tags = self._way_tags[si]
            for way in range(self._ways):
                tags[way] = -1
            self._bits[si] = 0

    def plru_views(self) -> tuple:
        """``(way_of, bits, keep, set)``: the live PLRU state (PLRU only).

        The per-set tag->way dicts and direction-bit list (mutated in
        place, never rebound, so hoisted references stay live across
        fills and flushes) and the per-way touch masks. Hot paths that
        inline the probe-and-touch read these; raises ``AttributeError``
        under LRU.
        """
        return self._way_of, self._bits, self._keep, self._setm

    def plru_state(self, index: int) -> tuple[int, list[int]]:
        """(direction bits, way->tag list) of set ``index`` (PLRU only).

        Introspection for the invariant monitor and tests; raises
        ``AttributeError`` under LRU, where no tree state exists.
        """
        return self._bits[index], list(self._way_tags[index])

    def occupancy(self) -> int:
        """Entries currently resident."""
        return sum(len(entries) for entries in self._sets)

    def resident_tags(self) -> set[int]:
        """All cached tags (for tests and introspection)."""
        tags: set[int] = set()
        for entries in self._sets:
            tags.update(entries)
        return tags
