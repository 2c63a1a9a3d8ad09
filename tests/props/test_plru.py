"""Property-based tests: the tree-PLRU bitmask vs a brute-force tree.

``repro.tlb.plru`` packs the PLRU tree into one heap-indexed int per
set — fast, but every bit-twiddle is a proof obligation. The oracle
here is :class:`repro.validation.reference._PLRUTree`, a deliberately
naive linked-node tree written independently for the reference TLB
model; agreement between the two on arbitrary touch sequences (plus a
handful of closed-form PLRU laws) is what lets the production encoding
be trusted, including the awkward cases: 1-way sets and
non-power-of-two way counts, where unbacked leaves must never be
selected.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TLBConfig
from repro.tlb import plru
from repro.tlb.tlb import TLB
from repro.validation.reference import RefTLB, _PLRUTree
from repro.vm.address import PageSize

#: every way count through 16, power-of-two and not, plus degenerate 1
WAYS = st.integers(min_value=1, max_value=16)


def touches(ways: int):
    """Strategy: a sequence of way indices valid for ``ways``."""
    return st.lists(
        st.integers(min_value=0, max_value=ways - 1), max_size=60
    )


@given(WAYS.flatmap(lambda w: st.tuples(st.just(w), touches(w))))
@settings(max_examples=200)
def test_victim_is_always_a_backed_way(case):
    ways, sequence = case
    bits = 0
    for way in sequence:
        bits = plru.touch(bits, ways, way)
        assert 0 <= plru.victim(bits, ways) < ways


@given(WAYS.flatmap(lambda w: st.tuples(st.just(w), touches(w))))
@settings(max_examples=200)
def test_victim_never_equals_the_last_touched_way(case):
    ways, sequence = case
    if ways < 2:
        return  # a 1-way set must evict its only (just-touched) way
    bits = 0
    for way in sequence:
        bits = plru.touch(bits, ways, way)
        assert plru.victim(bits, ways) != way


@given(WAYS.flatmap(lambda w: st.tuples(st.just(w), touches(w))))
@settings(max_examples=200)
def test_touch_is_idempotent(case):
    ways, sequence = case
    bits = 0
    for way in sequence:
        bits = plru.touch(bits, ways, way)
        assert plru.touch(bits, ways, way) == bits


@given(touches(1))
def test_one_way_set_is_degenerate(sequence):
    """No tree exists at 1 way: touch is a no-op, way 0 is the victim."""
    bits = 0
    for way in sequence:
        bits = plru.touch(bits, 1, way)
        assert bits == 0
        assert plru.victim(bits, 1) == 0


@given(WAYS.flatmap(lambda w: st.tuples(st.just(w), touches(w))))
@settings(max_examples=300)
def test_bitmask_matches_the_brute_force_tree(case):
    """Lock-step equivalence: after every touch, both trees nominate
    the same victim."""
    ways, sequence = case
    bits = 0
    model = _PLRUTree(ways)
    for way in sequence:
        bits = plru.touch(bits, ways, way)
        model.touch(way)
        assert plru.victim(bits, ways) == model.victim()


def _path_walk_touch(bits: int, ways: int, way: int) -> int:
    """Touch by walking the leaf-to-root path node by node."""
    node = plru.leaf_count(ways) + way
    while node > 1:
        parent = node >> 1
        if node & 1:
            bits &= ~(1 << parent)
        else:
            bits |= 1 << parent
        node = parent
    return bits


@given(
    st.integers(min_value=1, max_value=33).flatmap(
        lambda w: st.tuples(st.just(w), touches(w))
    )
)
@settings(max_examples=300)
def test_touch_masks_match_the_brute_force_tree(case):
    """The per-way (keep, set) masks the hot paths inline are the whole
    touch: one AND and one OR reproduce ``touch`` and a node-by-node
    path walk, and the masked state nominates the brute-force tree's
    victim after every step."""
    ways, sequence = case
    keep, set_ = plru.touch_masks(ways)
    assert len(keep) == len(set_) == ways
    bits = 0
    model = _PLRUTree(ways)
    for way in sequence:
        masked = (bits & keep[way]) | set_[way]
        assert masked == plru.touch(bits, ways, way)
        assert masked == _path_walk_touch(bits, ways, way)
        bits = masked
        model.touch(way)
        assert plru.victim(bits, ways) == model.victim()


@given(WAYS.flatmap(lambda w: st.tuples(st.just(w), touches(w))))
@settings(max_examples=100)
def test_victim_then_touch_visits_every_way(case):
    """Evicting and refilling repeatedly must rotate through all ways
    (for power-of-two way counts, exactly once per round) — the policy
    can never strand a way unreachable, whatever state touches left."""
    ways, sequence = case
    bits = 0
    for way in sequence:
        bits = plru.touch(bits, ways, way)
    is_pow2 = ways & (ways - 1) == 0
    if is_pow2:
        round_victims = []
        for _ in range(ways):
            victim = plru.victim(bits, ways)
            round_victims.append(victim)
            bits = plru.touch(bits, ways, victim)
        assert sorted(round_victims) == list(range(ways))
    else:
        seen = set()
        for _ in range(4 * ways):
            victim = plru.victim(bits, ways)
            seen.add(victim)
            bits = plru.touch(bits, ways, victim)
        assert seen == set(range(ways))


# ----------------------------------------------------------------------
# full-structure equivalence: production TLB vs reference model


_GEOMETRIES = st.sampled_from(
    [(4, 2), (6, 3), (8, 4), (8, 8), (12, 3), (16, 4), (3, 3), (2, 1)]
)

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "fill", "invalidate", "flush"]),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=80,
)


@given(_GEOMETRIES, _OPS)
@settings(max_examples=150)
def test_plru_tlb_matches_reference_model(geometry, ops):
    """Drive the production PLRU TLB and the reference RefTLB with one
    op sequence: victims, hit/miss answers, statistics, and resident
    tags must stay identical throughout."""
    entries, associativity = geometry
    real = TLB(
        TLBConfig(entries, associativity, (PageSize.BASE,),
                  replacement="plru"),
        "prop",
    )
    ref = RefTLB(entries, associativity, "plru", "prop")
    for op, tag in ops:
        if op == "lookup":
            assert real.lookup(tag) == ref.lookup(tag)
        elif op == "fill":
            real_victim = real.fill(tag, PageSize.BASE)
            ref_victim = ref.fill(tag, int(PageSize.BASE))
            assert real_victim == ref_victim
        elif op == "invalidate":
            assert real.invalidate(tag) == ref.invalidate(tag)
        else:
            real.flush()
            ref.flush()
        assert real.resident_tags() == ref.resident_tags()
    assert real.stats.hits == ref.stats.hits
    assert real.stats.misses == ref.stats.misses
    assert real.stats.evictions == ref.stats.evictions
    assert real.stats.invalidations == ref.stats.invalidations


@given(_GEOMETRIES, _OPS)
@settings(max_examples=100)
def test_lru_tlb_matches_reference_model(geometry, ops):
    """The same lock-step run under true LRU: the reference's explicit
    age counters must agree with the dict-order encoding."""
    entries, associativity = geometry
    real = TLB(
        TLBConfig(entries, associativity, (PageSize.BASE,)), "prop"
    )
    ref = RefTLB(entries, associativity, "lru", "prop")
    for op, tag in ops:
        if op == "lookup":
            assert real.lookup(tag) == ref.lookup(tag)
        elif op == "fill":
            assert real.fill(tag, PageSize.BASE) == ref.fill(
                tag, int(PageSize.BASE)
            )
        elif op == "invalidate":
            assert real.invalidate(tag) == ref.invalidate(tag)
        else:
            real.flush()
            ref.flush()
        assert real.resident_tags() == ref.resident_tags()
    assert real.stats.evictions == ref.stats.evictions
