"""Property-based tests: the TLB against a reference LRU model."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TLBConfig
from repro.tlb.tlb import TLB
from repro.vm.address import PageSize


class ReferenceLRU:
    """Oracle: per-set LRU cache implemented with OrderedDict."""

    def __init__(self, sets, ways):
        self.sets = [OrderedDict() for _ in range(sets)]
        self.nsets = sets
        self.ways = ways

    def lookup(self, tag):
        entries = self.sets[tag % self.nsets]
        if tag in entries:
            entries.move_to_end(tag)
            return True
        return False

    def fill(self, tag):
        entries = self.sets[tag % self.nsets]
        if tag in entries:
            entries.move_to_end(tag)
            return
        if len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[tag] = True

    def invalidate(self, tag):
        self.sets[tag % self.nsets].pop(tag, None)

    def resident(self):
        tags = set()
        for entries in self.sets:
            tags.update(entries)
        return tags


ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "fill", "invalidate"]),
        st.integers(0, 40),
    ),
    max_size=400,
)


@given(trace=ops, entries_log=st.integers(1, 4), ways_log=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_matches_reference_lru(trace, entries_log, ways_log):
    entries = 1 << entries_log
    ways = min(entries, 1 << ways_log)
    tlb = TLB(TLBConfig(entries, ways, (PageSize.BASE,)))
    oracle = ReferenceLRU(entries // ways, ways)
    for op, tag in trace:
        if op == "lookup":
            assert tlb.lookup(tag) == oracle.lookup(tag)
        elif op == "fill":
            tlb.fill(tag, PageSize.BASE)
            oracle.fill(tag)
        else:
            tlb.invalidate(tag)
            oracle.invalidate(tag)
        assert tlb.resident_tags() == oracle.resident()
        assert tlb.occupancy() <= entries
