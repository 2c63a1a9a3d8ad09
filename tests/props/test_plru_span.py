"""The span tree-PLRU classifier equals per-record ``TLB`` calls.

Under tree-PLRU a columnar span classifies each TLB structure with
:func:`repro.engine.columnar.classify_plru_hits` (through
``_classify_sets``) and commits the end state with ``_rebuild_sets``.
Per structure the span's touch stream is what the scalar path sends it
one record at a time: a lookup, and a fill when the lookup misses. So
classify-then-commit must leave exactly the state those calls leave —
the same hit per touch, direction bits, way->tag lists, tag->way and
entry dicts (in their fill order), stored values and eviction counts —
over 1-16 ways (3, 6 and 12 among them: trees with unbacked leaves),
1-8 cores, start states with invalidated holes, and empty and one-touch
slots.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TLBConfig
from repro.engine.columnar import classify_plru_hits
from repro.engine.machine import _classify_sets, _rebuild_sets
from repro.tlb.tlb import TLB
from repro.vm.address import PageSize

_ENTRY_BASE = int(PageSize.BASE)
_ENTRY_HUGE = int(PageSize.HUGE)

#: slot lengths: empty and one-touch slots drawn often
_LENGTHS = st.one_of(st.sampled_from((0, 1)), st.integers(0, 120))


@st.composite
def plru_spans(draw):
    ways = draw(st.one_of(st.sampled_from((3, 6, 12)), st.integers(1, 16)))
    nsets = draw(st.sampled_from((1, 2, 4, 8)))
    lengths = draw(st.lists(_LENGTHS, min_size=1, max_size=8))
    per_value = draw(st.booleans())  # an L2's per-fill values
    seed = draw(st.integers(0, 2**31 - 1))
    return ways, nsets, lengths, per_value, seed


def _prefilled(config, rng, vocab):
    """Two identical structures: random fills, touches and holes."""
    twins = [TLB(config, "L2"), TLB(config, "L2")]
    fills = rng.integers(0, vocab, int(rng.integers(0, 3 * config.entries)))
    holes = rng.integers(0, vocab, int(rng.integers(0, config.entries + 1)))
    for tlb in twins:
        for tag in fills.tolist():
            if not tlb.lookup(tag):
                tlb.fill(tag, _ENTRY_BASE)
        for tag in holes.tolist():
            tlb.invalidate(tag)
        tlb.stats.hits = tlb.stats.misses = tlb.stats.evictions = 0
    return twins


def _state(tlb):
    return ([tlb.plru_state(s) for s in range(tlb.nsets)],
            [list(way_of.items()) for way_of in tlb._way_of],
            [list(entries.items()) for entries in tlb.sets],
            tlb.stats.evictions)


@given(span=plru_spans())
@settings(max_examples=200, deadline=None)
def test_span_classify_and_commit_equal_per_record_calls(span):
    ways, nsets, lengths, per_value, seed = span
    rng = np.random.default_rng(seed)
    config = TLBConfig(nsets * ways, ways, (PageSize.BASE,),
                       replacement="plru")
    # a vocabulary a little wider than the structure: hits and evictions
    vocab = nsets * (ways + int(rng.integers(1, ways + 3)))
    cores = [_prefilled(config, rng, vocab) for _ in lengths]
    spans = [twin[0] for twin in cores]
    slots = np.repeat(np.arange(len(lengths)), lengths).astype(np.intp)
    tags = rng.integers(0, vocab, slots.size).astype(np.uint64)
    values = np.where(rng.integers(0, 2, slots.size).astype(bool),
                      _ENTRY_HUGE, _ENTRY_BASE)

    expected = []
    for slot, tag, value in zip(slots.tolist(), tags.tolist(),
                                values.tolist()):
        tlb = cores[slot][1]
        hit = tlb.lookup(tag)
        if not hit:
            tlb.fill(tag, value if per_value else _ENTRY_BASE)
        expected.append(hit)

    local = (tags % np.uint64(nsets)).astype(np.intp)
    before = [_state(tlb) for tlb in spans]
    epoch = _classify_sets(spans, slots, local, tags)
    assert [_state(tlb) for tlb in spans] == before  # read-only
    assert epoch.hits.tolist() == expected
    _rebuild_sets(spans, epoch, values if per_value else _ENTRY_BASE)
    for mine, twin in cores:
        assert _state(mine) == _state(twin)


def test_untouched_sets_report_no_end_state():
    hits, final = classify_plru_hits(
        np.array([1, 1], dtype=np.intp), np.array([5, 5], dtype=np.uint64),
        2, [0, 0, 0], [[-1, -1]] * 3, [{}, {}, {}])
    assert hits.tolist() == [False, True]
    assert final[0] is None and final[2] is None
    bits, way_tags, way_of = final[1]
    assert (way_tags, way_of) == ([5, -1], {5: 0})


def test_a_fill_takes_the_lowest_empty_way_before_the_tree():
    """Way 0 is a hole while ways 1-3 are resident: the next fill takes
    way 0 whatever the tree points at; the one after consults it."""
    tlb = TLB(TLBConfig(4, 4, (PageSize.BASE,), replacement="plru"))
    for tag in (10, 11, 12, 13):
        tlb.fill(tag, _ENTRY_BASE)
    tlb.invalidate(10)
    bits, way_tags = tlb.plru_state(0)
    hits, final = classify_plru_hits(
        np.zeros(2, dtype=np.intp), np.array([20, 21], dtype=np.uint64),
        4, [bits], [way_tags], [tlb._way_of[0]])
    assert hits.tolist() == [False, False]
    for tag in (20, 21):
        tlb.fill(tag, _ENTRY_BASE)
    assert final[0][1] == tlb.plru_state(0)[1]
    assert final[0][1][0] == 20
