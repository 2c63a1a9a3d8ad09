"""The columnar epoch tier's two load-bearing properties.

1. **Encoding is lossless.** :class:`~repro.engine.columnar.ColumnarStream`
   must round-trip the exact original access stream — record-for-record
   and access-for-access — for every workload in the registry, for
   arbitrary fuzzed streams, and through the content-addressed trace
   cache.

2. **Classification is exact.** The vectorized whole-epoch LRU
   classifier must agree with a direct per-set LRU simulation on hits,
   and its epoch-end reconstruction must agree on final per-set
   contents — for any set count, way count, tag vocabulary, and initial
   residency, for adversarially long reuse windows, and on every
   classifier call of a real columnar BFS run.

On top of those unit properties, the tier's end-to-end contract is
pinned the same way the fast tier is: bit-identical simulation
statistics against the scalar reference on the validation fuzz corpus
(seeds 0..50; the CI oracle sweep covers 0..199), and on the randomized
bursty, tight-interval, fragmented and 1GB-backed inputs of
``tests/props/test_fastpath_equivalence.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import (
    ColumnarStream,
    classify_lru_hits,
    classify_lru_hits_ref,
    final_lru_contents,
)
from repro.workloads.registry import (
    EXTENDED_WORKLOADS,
    workload_names,
)

#: small-but-real builds: every registry workload at a scale the suite
#: can afford (graph apps take a scale, proxies an access budget)
_TINY_SCALE = 10
_TINY_ACCESSES = 20_000


def _tiny_workload(name: str):
    from repro.workloads.registry import build_workload

    return build_workload(name, scale=_TINY_SCALE, accesses=_TINY_ACCESSES)


# ----------------------------------------------------------------------
# 1. encode -> decode round-trips exactly


@pytest.mark.parametrize(
    "name", list(workload_names()) + list(EXTENDED_WORKLOADS)
)
def test_encode_round_trips_every_registry_workload(name):
    """Whole-stream encoding loses nothing, workload by workload."""
    workload = _tiny_workload(name)
    for thread in workload.threads:
        trace = thread.trace
        stream = ColumnarStream.from_trace(trace)
        vpns, counts = stream.decode()
        np.testing.assert_array_equal(vpns, trace.vpns)
        np.testing.assert_array_equal(counts, trace.counts)
        assert stream.total_accesses == trace.total_accesses
        # The per-access expansion reproduces the raw page stream.
        np.testing.assert_array_equal(
            stream.expand(), np.repeat(trace.vpns, trace.counts)
        )
        # Derived columns are consistent with the records they index.
        np.testing.assert_array_equal(
            stream.page_tags[stream.page_ridx], trace.vpns
        )
        np.testing.assert_array_equal(
            stream.region_tags[stream.region_ridx],
            trace.vpns >> np.uint64(9),
        )


@given(
    vpns=st.lists(st.integers(0, 1 << 36), min_size=0, max_size=200),
    counts=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_encode_round_trips_fuzzed_streams(vpns, counts):
    n = len(vpns)
    runs = counts.draw(
        st.lists(st.integers(1, 1_000), min_size=n, max_size=n)
    )
    vpns = np.asarray(vpns, dtype=np.uint64)
    runs = np.asarray(runs, dtype=np.int64)
    stream = ColumnarStream.encode(vpns, runs)
    out_vpns, out_counts = stream.decode()
    np.testing.assert_array_equal(out_vpns, vpns)
    np.testing.assert_array_equal(out_counts, runs)
    assert stream.total_accesses == int(runs.sum())
    assert len(stream) == n


def test_encode_round_trips_through_trace_cache(tmp_path):
    """A cache miss then a mmap-backed hit decode identically."""
    from repro.trace.cache import TraceCache

    workload = _tiny_workload("BFS")
    trace = workload.threads[0].trace
    direct = ColumnarStream.from_trace(trace)
    cold = ColumnarStream.from_trace(trace, cache=TraceCache(tmp_path))
    warm = ColumnarStream.from_trace(trace, cache=TraceCache(tmp_path))
    for stream in (cold, warm):
        np.testing.assert_array_equal(stream.vpns, direct.vpns)
        np.testing.assert_array_equal(stream.counts, direct.counts)
        np.testing.assert_array_equal(stream.page_tags, direct.page_tags)
        np.testing.assert_array_equal(stream.page_ridx, direct.page_ridx)
        np.testing.assert_array_equal(
            stream.region_tags, direct.region_tags
        )
        np.testing.assert_array_equal(
            stream.region_ridx, direct.region_ridx
        )


# ----------------------------------------------------------------------
# 2. the whole-epoch LRU classifier is exact


@st.composite
def lru_epochs(draw):
    """One structure's epoch: geometry, initial residency, touches."""
    nsets = draw(st.integers(1, 8))
    ways = draw(st.integers(1, 8))
    vocab = draw(st.integers(1, 60))
    n = draw(st.integers(0, 400))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    tags = rng.integers(0, vocab, size=n, dtype=np.int64)
    set_ids = tags % nsets
    initial: list[list[int]] = []
    for s in range(nsets):
        residents = [
            int(t) for t in rng.permutation(vocab)[: rng.integers(0, ways + 1)]
            if int(t) % nsets == s
        ]
        initial.append(residents)
    return nsets, ways, set_ids, tags, initial


def _init_arrays(initial):
    init_set_ids = []
    init_tags = []
    for s, stack in enumerate(initial):
        for tag in stack:
            init_set_ids.append(s)
            init_tags.append(tag)
    return (
        np.asarray(init_set_ids, dtype=np.int64),
        np.asarray(init_tags, dtype=np.int64),
    )


@given(epoch=lru_epochs())
@settings(max_examples=200, deadline=None)
def test_classifier_matches_per_set_lru_simulation(epoch):
    nsets, ways, set_ids, tags, initial = epoch
    init_set_ids, init_tags = _init_arrays(initial)
    hits, contents = classify_lru_hits(
        set_ids, tags, ways, init_set_ids, init_tags, nsets=nsets
    )
    expected = classify_lru_hits_ref(set_ids, tags, ways, initial)
    np.testing.assert_array_equal(hits, expected)
    assert contents == final_lru_contents(
        set_ids, tags, nsets, ways, initial
    )


#: Hand-checked epochs pinning the classifier's edge cases:
#: ``(nsets, ways, tags, initial, expected hits, expected contents)``.
#: Each set's tag is ``tag % nsets``; stacks read LRU→MRU.
_PINNED_LRU_EPOCHS = {
    "empty-epoch-keeps-initial": (
        2, 2, [], [[0, 2], [1]], [], [[0, 2], [1]]),
    "zero-ways-misses-everything": (
        1, 0, [1, 1, 1], [[]], [False] * 3, [[]]),
    "cycle-over-capacity-never-hits": (
        1, 2, [0, 1, 2, 0, 1, 2], [[]], [False] * 6, [[1, 2]]),
    "cycle-within-capacity-hits-second-lap": (
        1, 3, [0, 1, 2, 0, 1, 2], [[]],
        [False] * 3 + [True] * 3, [[0, 1, 2]]),
    "initial-residents-hit-then-age-out": (
        1, 2, [7, 5, 9, 7], [[5, 7]],
        [True, True, False, False], [[9, 7]]),
    "sets-are-independent": (
        2, 1, [0, 1, 0, 1, 2, 0], [[], []],
        [False, False, True, True, False, False], [[0], [1]]),
}


@pytest.mark.parametrize(
    "case", list(_PINNED_LRU_EPOCHS.values()), ids=list(_PINNED_LRU_EPOCHS)
)
def test_classifier_pinned_epochs(case):
    nsets, ways, tag_list, initial, expected, expected_contents = case
    tags = np.asarray(tag_list, dtype=np.int64)
    set_ids = tags % nsets
    init_set_ids, init_tags = _init_arrays(initial)
    hits, contents = classify_lru_hits(
        set_ids, tags, ways, init_set_ids, init_tags, nsets=nsets
    )
    assert hits.tolist() == expected
    if ways:  # the per-set reference needs at least one way to evict
        np.testing.assert_array_equal(
            hits, classify_lru_hits_ref(set_ids, tags, ways, initial)
        )
    assert contents == expected_contents


def _assert_matches_reference(nsets, ways, set_ids, tags, initial):
    init_set_ids, init_tags = _init_arrays(initial)
    hits, contents = classify_lru_hits(
        set_ids, tags, ways, init_set_ids, init_tags, nsets=nsets
    )
    np.testing.assert_array_equal(
        hits, classify_lru_hits_ref(set_ids, tags, ways, initial)
    )
    assert contents == final_lru_contents(
        set_ids, tags, nsets, ways, initial
    )
    return hits


@st.composite
def adversarial_lru_epochs(draw):
    """Epochs whose reuse windows are long: hot-set, scan and ping-pong
    patterns over per-set vocabularies straddling the way count, with
    long same-tag runs, so window counts cross several block rounds."""
    nsets = draw(st.integers(1, 4))
    ways = draw(st.sampled_from((1, 2, 4, 8, 12)))
    vocab = max(1, draw(st.sampled_from(
        (ways - 1, ways, ways + 1, 2 * ways))))
    pattern = draw(st.sampled_from(("hot", "scan", "ping-pong")))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # the length is drawn from the seed, not shrunk towards zero, so
    # most examples are long enough for multi-round windows
    n = int(rng.integers(0, draw(st.sampled_from((100, 1_000, 3_000))) + 1))
    picks: list[int] = []
    while len(picks) < n:
        if pattern == "hot":
            # mostly a hot subset of ways-1 tags, now and then a cold one
            hot = max(1, ways - 1)
            k = (int(rng.integers(0, hot)) if rng.random() < 0.9
                 else int(rng.integers(0, vocab)))
            picks.extend([k] * int(rng.integers(1, 9)))
        elif pattern == "scan":
            for k in range(vocab):
                picks.extend([k] * int(rng.integers(1, 4)))
        else:
            # long A/B alternations, then a jump to a fresh pair
            a, b = (int(x) for x in rng.integers(0, vocab, size=2))
            for _ in range(int(rng.integers(1, 80))):
                picks.extend([a] * int(rng.integers(1, 4)))
                picks.extend([b] * int(rng.integers(1, 4)))
    sets = rng.integers(0, nsets, size=n)
    tags = sets + nsets * np.asarray(picks[:n], dtype=np.int64)
    initial = [
        [s + nsets * int(k)
         for k in rng.permutation(vocab)[: rng.integers(0, ways + 1)]]
        for s in range(nsets)
    ]
    return nsets, ways, sets, tags, initial


@given(epoch=adversarial_lru_epochs())
@settings(max_examples=300, deadline=None)
def test_classifier_matches_reference_on_long_reuse_windows(epoch):
    _assert_matches_reference(*epoch)


@pytest.mark.parametrize("ways", [2, 4, 8])
@pytest.mark.parametrize("others,hit", [(-1, True), (0, False)],
                         ids=["ways-1-others-hit", "ways-others-miss"])
def test_long_window_hits_iff_fewer_than_ways_distinct_others(
        ways, others, hit):
    """One set: ``ways`` fillers, target tag 0, then over 4*ways runs
    cycling through ``ways + others`` distinct other tags, then 0."""
    fillers = list(range(100, 100 + ways))
    cycle = list(range(1, ways + others + 1))
    tags = np.asarray(fillers + [0] + cycle * (4 * ways + 1) + [0],
                      dtype=np.int64)
    hits = _assert_matches_reference(1, ways, tags * 0, tags, [[]])
    assert hits[-1] == hit


@pytest.mark.parametrize("ways", [1, 2, 4, 8])
def test_cycle_of_ways_plus_one_tags_never_hits(ways):
    tags = np.arange(500, dtype=np.int64) % (ways + 1)
    hits = _assert_matches_reference(1, ways, tags * 0, tags, [[]])
    assert not hits.any()


def test_classifier_is_exact_on_real_bfs_traffic(monkeypatch):
    """Every classifier call of a columnar run of the named BFS workload
    (PCC, 90% fragmentation) agrees with the per-set LRU simulation."""
    import copy

    from repro.engine import machine, residue
    from repro.engine.simulation import Simulator
    from repro.experiments.common import build_named_workload, config_for
    from repro.os.kernel import HugePagePolicy

    calls = []

    def recording(*args, **kwargs):
        result = classify_lru_hits(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(machine, "classify_lru_hits", recording)
    monkeypatch.setattr(residue, "classify_lru_hits", recording)
    workload = build_named_workload("BFS", graph_scale=10,
                                    proxy_accesses=25_000)
    simulator = Simulator(config_for(workload), policy=HugePagePolicy.PCC,
                          fragmentation=0.9, tier="columnar")
    simulator.run([copy.deepcopy(workload)])
    assert calls
    for args, kwargs, (hits, contents) in calls:
        set_ids, tags, ways, init_set_ids, init_tags = args
        nsets = kwargs["nsets"]
        initial = [[] for _ in range(nsets)]
        for s, tag in zip(init_set_ids.tolist(), init_tags.tolist()):
            initial[s].append(tag)
        np.testing.assert_array_equal(
            hits, classify_lru_hits_ref(set_ids, tags, ways, initial)
        )
        assert contents == final_lru_contents(
            set_ids, tags, nsets, ways, initial
        )


# ----------------------------------------------------------------------
# 3. end-to-end: columnar == scalar on the validation fuzz corpus


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
def test_columnar_is_bit_identical_to_scalar_on_fuzz_corpus(seed):
    """Seeds 0..50 of the oracle's corpus: every observable matches."""
    from repro.validation.generators import generate_case
    from repro.validation.oracle import run_case

    case = generate_case(seed)
    _, scalar = run_case(case, tier="scalar", validate=False)
    _, columnar = run_case(case, tier="columnar", validate=False)
    assert _tier_fingerprint(columnar) == _tier_fingerprint(scalar)
