"""The residue pipeline's load-bearing properties.

PR 7 retires the columnar epoch's L1-miss residue as array passes: the
unified L2 and the per-level page-walk caches become classified LRU
streams (:mod:`repro.engine.residue`), and multi-thread rounds retire
as per-core epochs. Three things must hold exactly:

1. **Vectorized L2 retirement is exact.** The engine's classify and
   rebuild pair (``machine._classify_sets`` / ``_rebuild_sets``) —
   contents, stored entry values, LRU order, evictions — must agree
   with a scalar replay of the hierarchy's probe-refresh/fill-on-miss
   sequence against a real :class:`~repro.tlb.tlb.TLB`.

2. **PWC classification is exact.** :func:`residue.pwc_level_outcomes`
   must agree with the walker's sequential memo-then-LRU probe loop on
   outcomes, end contents, evictions, and the memo's final value.

3. **Multi-thread epochs are invisible.** With 2+ runnable threads the
   columnar tier must stay bit-identical to the scalar reference on
   the fuzz corpus, while demonstrably engaging the multi-thread
   epoch path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TLBConfig
from repro.engine import residue
from repro.engine.machine import _classify_sets, _rebuild_sets
from repro.tlb.tlb import TLB
from repro.vm.address import PageSize

_ENTRY_BASE = int(PageSize.BASE)
_ENTRY_HUGE = int(PageSize.HUGE)


# ----------------------------------------------------------------------
# 1. vectorized L2 classification + reconstruction == scalar replay


@st.composite
def l2_epochs(draw):
    """Geometry, a prefill sequence, and a mixed 4K/2MB probe stream."""
    nsets = draw(st.sampled_from((1, 2, 4, 8)))
    ways = draw(st.integers(1, 6))
    vocab = draw(st.integers(1, 48))
    n = draw(st.integers(0, 250))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    tags = rng.integers(0, vocab, size=n).astype(np.uint64)
    kinds = rng.integers(0, 2, size=n).astype(bool)
    prefill = [
        (int(t), bool(k))
        for t, k in zip(
            rng.integers(0, vocab, size=int(rng.integers(0, nsets * ways + 1))),
            rng.integers(0, 2, size=nsets * ways + 1),
        )
    ]
    return nsets, ways, tags, kinds, prefill


def _scalar_l2_replay(tlb, tags, kinds):
    """The hierarchy's L2 usage: probe-refresh on hit, fill on miss."""
    hits = np.zeros(tags.size, dtype=bool)
    nsets = tlb.nsets
    sets = tlb.sets
    for i, (tag, kind) in enumerate(zip(tags.tolist(), kinds.tolist())):
        entries = sets[tag % nsets]
        value = entries.get(tag)
        if value is not None:
            del entries[tag]
            entries[tag] = value
            hits[i] = True
        else:
            tlb.fill(tag, _ENTRY_HUGE if kind else _ENTRY_BASE)
    return hits


@given(epoch=l2_epochs())
@settings(max_examples=150, deadline=None)
def test_vectorized_l2_matches_scalar_replay(epoch):
    nsets, ways, tags, kinds, prefill = epoch
    config = TLBConfig(nsets * ways, ways, (PageSize.BASE,))
    tlb = TLB(config, "L2")
    twin = TLB(config, "L2")
    for target in (tlb, twin):
        for tag, kind in prefill:
            if tag not in target.sets[tag % nsets]:
                target.fill(tag, _ENTRY_HUGE if kind else _ENTRY_BASE)

    # Classify against one copy and commit to its twin, exactly as
    # _epoch_classify/_epoch_finish do for a one-slot span; replay the
    # other scalar.
    set_ids = (tags % np.uint64(nsets)).astype(np.intp)
    slots = np.zeros(tags.size, dtype=np.intp)
    classified = _classify_sets([twin], slots, set_ids, tags)
    fills = np.where(kinds, _ENTRY_HUGE, _ENTRY_BASE)
    base_evictions = twin.stats.evictions
    _rebuild_sets([twin], classified, fills)

    ref_evictions = tlb.stats.evictions
    ref_hits = _scalar_l2_replay(tlb, tags, kinds)

    np.testing.assert_array_equal(classified.hits, ref_hits)
    assert (twin.stats.evictions - base_evictions
            == tlb.stats.evictions - ref_evictions)
    for rebuilt, entries in zip(twin.sets, tlb.sets):
        # contents, LRU->MRU order, and stored entry values
        assert list(rebuilt.items()) == list(entries.items())


# ----------------------------------------------------------------------
# 2. PWC level classification == the walker's sequential probe loop


@st.composite
def pwc_epochs(draw):
    """One PWC level's epoch: geometry, memo seed, repeat-heavy tags."""
    nsets = draw(st.sampled_from((1, 2, 4)))
    ways = draw(st.integers(1, 4))
    vocab = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    # Upper-level tags repeat for long stretches; build runs so the
    # memo path is exercised hard.
    runs = int(rng.integers(0, 60))
    tags: list[int] = []
    for _ in range(runs):
        tags.extend([int(rng.integers(0, vocab))] * int(rng.integers(1, 6)))
    last_tag = int(rng.integers(0, vocab)) if rng.integers(0, 2) else -1
    prefill = [int(t) for t in rng.integers(0, vocab, size=int(rng.integers(0, nsets * ways + 1)))]
    return nsets, ways, tags, last_tag, prefill


@given(epoch=pwc_epochs())
@settings(max_examples=150, deadline=None)
def test_pwc_level_outcomes_match_sequential_walker(epoch):
    nsets, ways, tags, last_tag, prefill = epoch
    pwc = TLB(TLBConfig(nsets * ways, ways, (PageSize.BASE,)), "PWC")
    for tag in prefill:
        pwc.fill(tag, PageSize.BASE)
    outcomes, contents, evictions, final_last = residue.pwc_level_outcomes(
        [pwc], [last_tag], np.asarray(tags, dtype=np.int64),
        np.zeros(len(tags), dtype=np.intp),
    )

    # The walker's inline sequence: memo, then pwc.lookup / pwc.fill.
    base_evictions = pwc.stats.evictions
    last = last_tag
    ref = []
    for tag in tags:
        if tag == last:
            ref.append(0)
            continue
        if pwc.lookup(tag):
            ref.append(1)
        else:
            pwc.fill(tag, PageSize.BASE)
            ref.append(2)
        last = tag

    assert outcomes.tolist() == ref
    assert [list(entries) for entries in pwc.sets] == \
        [list(stack) for stack in contents]
    assert evictions.tolist() == [pwc.stats.evictions - base_evictions]
    assert final_last == [last]


#: Hand-checked PWC epochs: ``(nsets, ways, tags, last_tag, initial,
#: expected outcomes, expected contents, expected evictions,
#: expected final memo)``. Outcomes: 0 memo hit, 1 PWC hit, 2 fill.
_PINNED_PWC_EPOCHS = {
    "empty-epoch-keeps-memo": (
        1, 2, [], 4, [[4]], [], [[4]], 0, 4),
    "repeats-ride-the-memo": (
        1, 1, [3, 3, 3], 3, [[3]], [0, 0, 0], [[3]], 0, 3),
    "one-way-thrash-refills": (
        1, 1, [4, 4, 5, 4], -1, [[]], [2, 0, 2, 2], [[4]], 2, 4),
}


@pytest.mark.parametrize(
    "case", list(_PINNED_PWC_EPOCHS.values()), ids=list(_PINNED_PWC_EPOCHS)
)
def test_pwc_level_outcomes_pinned_epochs(case):
    (nsets, ways, tags, last_tag, initial,
     expected, expected_contents, expected_evictions, expected_last) = case
    pwc = TLB(TLBConfig(nsets * ways, ways, (PageSize.BASE,)), "PWC")
    for entries, stack in zip(pwc.sets, initial):
        entries.update(dict.fromkeys(stack, _ENTRY_BASE))
    outcomes, contents, evictions, final_last = residue.pwc_level_outcomes(
        [pwc], [last_tag], np.asarray(tags, dtype=np.int64),
        np.zeros(len(tags), dtype=np.intp),
    )
    assert outcomes.tolist() == expected
    assert [list(stack) for stack in contents] == expected_contents
    assert evictions.tolist() == [expected_evictions]
    assert final_last == [expected_last]


# ----------------------------------------------------------------------
# 3. the L2 aliasing pre-check


def _arr(values):
    return np.asarray(values, dtype=np.uint64)


def test_alias_conflict_empty_is_clean():
    assert not residue.l2_alias_conflict(
        _arr([]), _arr([]), _arr([]), _arr([]), serves_huge=True
    )


def test_alias_conflict_disjoint_tags_are_clean():
    assert not residue.l2_alias_conflict(
        _arr([1000]), _arr([1, 2]), _arr([3000]), _arr([5000]),
        serves_huge=True,
    )


def test_alias_conflict_huge_vpn_hits_resident_tag():
    # A huge-backed record's silent 4K probe collides with a resident.
    assert residue.l2_alias_conflict(
        _arr([5]), _arr([]), _arr([5]), _arr([]), serves_huge=False
    )


def test_alias_conflict_base_huge_tag_collides_with_base_vpn():
    # A 4K record's silent 2MB-tag probe (512 >> 9 == 1) collides with
    # another 4K record's modelled fill at VPN 1 — only when the L2
    # serves huge entries and so performs that probe at all.
    assert residue.l2_alias_conflict(
        _arr([]), _arr([512, 1]), _arr([]), _arr([]), serves_huge=True
    )
    assert not residue.l2_alias_conflict(
        _arr([]), _arr([512, 1]), _arr([]), _arr([]), serves_huge=False
    )


def test_alias_conflict_giga_record_probes():
    assert residue.l2_alias_conflict(
        _arr([7]), _arr([]), _arr([]), _arr([7]), serves_huge=False
    )
    # 1GB record's 2MB-tag probe: 1024 >> 9 == 2.
    assert residue.l2_alias_conflict(
        _arr([2]), _arr([]), _arr([]), _arr([1024]), serves_huge=True
    )
    assert not residue.l2_alias_conflict(
        _arr([2]), _arr([]), _arr([]), _arr([1024]), serves_huge=False
    )


# ----------------------------------------------------------------------
# 4. multi-thread epochs: bit-identical and demonstrably engaged


def _tier_fingerprint(result) -> tuple:
    return (
        result.policy,
        result.total_cycles,
        result.accesses,
        result.walks,
        result.l1_hits,
        result.l2_hits,
        result.promotions,
        result.demotions,
        tuple(result.promotion_timeline),
        tuple(tuple(sorted(t.items())) for t in result.huge_page_timeline),
    )


@pytest.mark.parametrize("seed", range(0, 51))
def test_multithread_columnar_is_bit_identical_to_scalar(seed):
    """Seeds 0..50 with a 2-thread floor: every observable matches."""
    from repro.validation.generators import generate_case
    from repro.validation.oracle import run_case

    case = generate_case(seed, min_threads=2)
    assert len(case.threads) >= 2
    _, scalar = run_case(case, tier="scalar", validate=False)
    _, columnar = run_case(case, tier="columnar", validate=False)
    assert _tier_fingerprint(columnar) == _tier_fingerprint(scalar)


def test_multithread_epochs_engage():
    """The sweep above must actually exercise the multi-thread path."""
    from repro.validation.generators import generate_case
    from repro.validation.oracle import run_case

    case = generate_case(0, min_threads=2)
    _, result = run_case(case, tier="columnar", validate=False)
    counters = (result.metrics or {}).get("counters", {})
    mt = sum(v for k, v in counters.items()
             if k.endswith("columnar_mt_epochs"))
    batched = sum(v for k, v in counters.items()
                  if k.endswith("columnar_faults_batched"))
    retired = sum(v for k, v in counters.items()
                  if k.endswith("columnar_l2_retired"))
    assert mt > 0
    assert batched > 0
    assert retired > 0


def test_min_threads_default_preserves_historical_cases():
    """The floor is applied after the draw: seed streams are stable."""
    from repro.validation.generators import generate_case

    assert generate_case(3).case_id == generate_case(3, min_threads=1).case_id
