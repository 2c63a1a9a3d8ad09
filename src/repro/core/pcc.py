"""Promotion Candidate Cache (PCC) — §3.2 of the paper.

A small, fully-associative structure placed after the last-level TLB.
Each entry pairs a huge-page-aligned virtual address prefix (40-bit tag
for 2MB regions, 31-bit for 1GB) with an N-bit saturating page-table-
walk frequency counter:

* **Access** (one per admitted page table walk): on a hit the counter
  increments; when any counter saturates, *all* counters halve,
  preserving relative order while aging stale candidates. On a miss the
  LFU entry (LRU as tiebreaker) is evicted if the cache is full and the
  new prefix is inserted with frequency 0.
* **Dump**: the OS periodically reads the contents ranked by frequency
  (highest first) — the PCC's priority list of promotion candidates.
* **Invalidate**: TLB shootdowns (promotion, migration) remove the
  affected region, so no stale candidate survives a promotion (§3.3).

The same class implements both the per-core 2MB PCC and the smaller
1GB PCC; only the tag granularity differs, which the owner controls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PCCConfig


@dataclass
class PCCStats:
    """Operational counters for one PCC instance."""

    accesses: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    decays: int = 0
    invalidations: int = 0

    @property
    def misses(self) -> int:
        """Accesses that inserted a new tag."""
        return self.accesses - self.hits


@dataclass
class PCCEntry:
    """One candidate: region tag, frequency, LRU timestamp, provenance."""

    tag: int
    frequency: int
    last_use: int
    #: whether the walks hitting this entry came from a leaf already of
    #: this PCC's page size (a 2MB leaf for the 2MB PCC, a 1GB leaf for
    #: the 1GB PCC) — the demotion/1GB-promotion signal of §3.3.3
    promoted_leaf: bool = False


class PromotionCandidateCache:
    """Fully-associative candidate tracker with saturating counters."""

    def __init__(self, config: PCCConfig, capacity: int | None = None) -> None:
        self.config = config
        self.capacity = config.entries if capacity is None else capacity
        if self.capacity <= 0:
            raise ValueError(f"PCC capacity must be positive, got {self.capacity}")
        self._counter_max = config.counter_max
        self._lfu = config.replacement == "lfu"
        # Set-associative variant (ablation): conflict evictions happen
        # within a tag's set. associativity 0 or capacity-wide = the
        # paper's fully-associative design.
        ways = config.associativity or self.capacity
        ways = min(ways, self.capacity)
        self._sets = max(1, self.capacity // ways)
        self._ways = ways
        self._entries: dict[int, PCCEntry] = {}
        self._set_fill: dict[int, int] = {}
        self._tick = 0
        self.stats = PCCStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tag: int) -> bool:
        return tag in self._entries

    @property
    def full(self) -> bool:
        """Whether every entry slot is occupied."""
        return len(self._entries) >= self.capacity

    def access(self, tag: int, promoted_leaf: bool = False) -> PCCEntry:
        """Record one admitted page-table walk for region ``tag``.

        Implements the right side of Fig. 3: hit increments (with
        halve-all on saturation); miss evicts the replacement victim if
        full and inserts the tag with frequency 0. Returns the entry.
        """
        self.access_many(((tag, promoted_leaf),))
        return self._entries[tag]

    def access_many(self, events: list[tuple[int, bool]]) -> None:
        """Record a batch of ``(tag, promoted_leaf)`` walks in order.

        The one admission loop: :meth:`access` is the one-event call.
        The columnar engine tier defers a whole epoch's PCC events into
        one call per structure (the 2MB and 1GB PCCs are independent, so
        per-structure order is the only order that matters); the
        deferral is exact because nothing between an epoch's walks reads
        the PCC — the OS only consumes it at tick boundaries, which the
        epoch never spans.
        """
        entries = self._entries
        stats = self.stats
        counter_max = self._counter_max
        tick = self._tick
        n_hits = 0
        for tag, promoted_leaf in events:
            tick += 1
            entry = entries.get(tag)
            if entry is not None:
                n_hits += 1
                entry.last_use = tick
                entry.promoted_leaf = entry.promoted_leaf or promoted_leaf
                if entry.frequency >= counter_max:
                    self._decay()
                entry.frequency += 1
                continue
            set_index = tag % self._sets
            if self._set_fill.get(set_index, 0) >= self._ways:
                victim = self._select_victim(set_index)
                del entries[victim.tag]
                self._set_fill[set_index] -= 1
                stats.evictions += 1
            entries[tag] = PCCEntry(
                tag=tag, frequency=0, last_use=tick,
                promoted_leaf=promoted_leaf,
            )
            self._set_fill[set_index] = self._set_fill.get(set_index, 0) + 1
            stats.insertions += 1
        self._tick = tick
        stats.accesses += len(events)
        stats.hits += n_hits

    def _decay(self) -> None:
        """Halve every counter, maintaining relative order (§3.2.1)."""
        for entry in self._entries.values():
            entry.frequency >>= 1
        self.stats.decays += 1

    def _select_victim(self, set_index: int) -> PCCEntry:
        """Replacement victim within one set: LFU with LRU tiebreak, or
        plain LRU (the whole structure is one set when fully
        associative)."""
        if self._sets == 1:
            candidates = self._entries.values()
        else:
            candidates = (
                entry
                for entry in self._entries.values()
                if entry.tag % self._sets == set_index
            )
        if self._lfu:
            return min(candidates, key=lambda e: (e.frequency, e.last_use))
        return min(candidates, key=lambda e: e.last_use)

    def invalidate(self, tag: int) -> bool:
        """Drop ``tag`` on a TLB shootdown of its region."""
        if tag in self._entries:
            del self._entries[tag]
            self._set_fill[tag % self._sets] -= 1
            self.stats.invalidations += 1
            return True
        return False

    def ranked(self) -> list[PCCEntry]:
        """Entries ordered as the PCC's priority list: frequency
        descending, recency as tiebreaker (most recent first)."""
        return sorted(
            self._entries.values(), key=lambda e: (-e.frequency, -e.last_use)
        )

    def frequency_of(self, tag: int) -> int | None:
        """Current counter value for ``tag``, or None if absent."""
        entry = self._entries.get(tag)
        return entry.frequency if entry is not None else None

    def flush(self) -> list[PCCEntry]:
        """Dump-and-clear: the CPU writes PCC contents to the designated
        memory region and the structure starts afresh (Fig. 4 step A)."""
        ranked = self.ranked()
        self._entries.clear()
        self._set_fill.clear()
        return ranked

    def storage_bits(self, tag_bits: int) -> int:
        """Hardware storage the structure requires, for overhead checks.

        With the paper's parameters (128 entries, 40-bit tags, 8-bit
        counters) this is 768 bytes for the 2MB PCC.
        """
        return self.capacity * (tag_bits + self.config.counter_bits)
