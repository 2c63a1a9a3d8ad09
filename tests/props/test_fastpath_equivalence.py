"""The translation fast path must be invisible in every statistic.

The live L1 probe in :class:`~repro.engine.machine.
TranslationPipeline` bypasses the TLB object graph for repeated hits,
and the columnar epoch tier falls back to it between epochs; the
correctness claim of both is *bit-identical behavior* to the scalar
reference: the same walks, the same per-structure hit counts, the same
cycles, the same promotions — on any trace, under any interleaving,
across promotion ticks and the shootdowns they broadcast, demotions,
fragmentation, 1GB promotions, and tree-PLRU replacement. These
properties drive randomized multi-thread traces through every engine
tier and compare the results field by field.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.engine.machine import ENGINE_TIERS
from repro.engine.simulation import SimulationResult, Simulator
from repro.engine.system import ProcessWorkload
from repro.os.kernel import HugePagePolicy, KernelParams
from repro.trace.events import Trace
from tests.conftest import make_workload

BASE = 0x5555_5540_0000

#: the tiers held against the scalar reference
TIERS_UNDER_TEST = ENGINE_TIERS[1:]

POLICIES = [
    HugePagePolicy.NONE,
    HugePagePolicy.LINUX_THP,
    HugePagePolicy.HAWKEYE,
    HugePagePolicy.PCC,
    HugePagePolicy.IDEAL,
]


def _result_fingerprint(result: SimulationResult) -> dict:
    """Every observable statistic of a run, for exact comparison."""
    return {
        "policy": result.policy,
        "total_cycles": result.total_cycles,
        "accesses": result.accesses,
        "walks": result.walks,
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
        "promotions": result.promotions,
        "demotions": result.demotions,
        "promotion_timeline": result.promotion_timeline,
        "huge_page_timeline": result.huge_page_timeline,
        "per_core": result.per_core,
        "processes": [
            (p.pid, p.name, p.accesses, p.walks, p.huge_pages,
             p.footprint_regions)
            for p in result.processes
        ],
    }


def _non_fastpath_counters(result: SimulationResult) -> dict:
    """Metrics counters minus the fast path's own instrumentation."""
    return {
        name: value
        for name, value in result.metrics["counters"].items()
        if ".fastpath." not in name
    }


def _pages_to_stream(pages) -> np.ndarray:
    return np.uint64(BASE) + np.array(pages, dtype=np.uint64) * np.uint64(4096)


@st.composite
def thread_page_streams(draw):
    """1-3 threads of bounded page accesses over a shared window.

    The window (400 pages ~ 4 x 2MB regions) is small enough that the
    tiny TLB thrashes and promotion candidates accumulate, so runs
    exercise hits, evictions, walks, faults, promotions and shootdowns.
    """
    threads = draw(st.integers(1, 3))
    streams = []
    for _ in range(threads):
        length = draw(st.integers(20, 400))
        pages = draw(
            st.lists(st.integers(0, 400), min_size=length, max_size=length)
        )
        streams.append(_pages_to_stream(pages))
    return streams


@st.composite
def bursty_page_streams(draw):
    """1-2 threads alternating hot bursts with random strides.

    Bursts over a handful of pages produce long same-set repeat runs
    (tier-1 hits, and epochs the classifier retires almost whole); the
    random tail breaks them up so memo hits and full-path records
    interleave within one quantum.
    """
    threads = draw(st.integers(1, 2))
    streams = []
    for _ in range(threads):
        pages: list[int] = []
        for _ in range(draw(st.integers(1, 4))):
            hot = draw(st.integers(0, 40))
            burst = draw(st.integers(4, 60))
            stride = draw(st.integers(0, 2))
            pages.extend(hot + (k % 3) * stride for k in range(burst))
            tail = draw(
                st.lists(st.integers(0, 700), min_size=0, max_size=30)
            )
            pages.extend(tail)
        streams.append(_pages_to_stream(pages))
    return streams


any_page_streams = st.one_of(thread_page_streams(), bursty_page_streams())


def _plru_wide_config(cores: int = 2):
    """Tree-PLRU TLBs on 4/8-way sets, where PLRU differs from LRU
    (the tiny default's 2-way sets make the two policies coincide)."""
    config = tiny_config(cores=cores)
    tlb = config.tlb
    tlb = replace(
        tlb,
        l1_base=replace(tlb.l1_base, entries=8, associativity=4),
        l2=replace(tlb.l2, entries=16, associativity=8),
    )
    return config.with_(tlb=tlb.with_replacement("plru"))


def _workload(streams) -> ProcessWorkload:
    single = make_workload(np.concatenate(streams))
    if len(streams) == 1:
        return single
    traces = [
        Trace(
            name=f"t{i}",
            addresses=stream,
            footprint_bytes=single.footprint_bytes,
        )
        for i, stream in enumerate(streams)
    ]
    return ProcessWorkload.multi_thread(traces, single.layout, name="prop")


def _run(streams, policy, tier, *, config=None, params=None,
         fragmentation=0.0):
    simulator = Simulator(
        config or tiny_config(cores=2),
        policy=policy,
        params=params,
        fragmentation=fragmentation,
        tier=tier,
    )
    return simulator.run([_workload(streams)])


def _assert_tier_matches_scalar(tier, streams, policy, **kwargs) -> None:
    reference = _result_fingerprint(_run(streams, policy, "scalar", **kwargs))
    candidate = _result_fingerprint(_run(streams, policy, tier, **kwargs))
    assert candidate == reference, f"{tier} tier diverged from scalar"


@pytest.mark.parametrize("tier", TIERS_UNDER_TEST)
@given(streams=any_page_streams, policy=st.sampled_from(POLICIES))
@settings(max_examples=50, deadline=None)
def test_fast_path_is_bit_identical(tier, streams, policy):
    _assert_tier_matches_scalar(tier, streams, policy)


@pytest.mark.parametrize("tier", TIERS_UNDER_TEST)
@given(streams=any_page_streams, policy=st.sampled_from(POLICIES))
@settings(max_examples=30, deadline=None)
def test_fast_path_is_bit_identical_under_plru(tier, streams, policy):
    """Under PLRU the fast loop's tier 2 does the masked tree touch
    itself, and columnar replays every epoch through that loop after
    its fault pre-pass."""
    _assert_tier_matches_scalar(
        tier, streams, policy, config=_plru_wide_config()
    )


@pytest.mark.parametrize("tier", TIERS_UNDER_TEST)
@given(streams=any_page_streams)
@settings(max_examples=25, deadline=None)
def test_fast_path_metrics_counters_match(tier, streams):
    """The metrics bus sees identical counters too (fastpath.* aside)."""
    reference = _non_fastpath_counters(
        _run(streams, HugePagePolicy.PCC, "scalar")
    )
    counters = _non_fastpath_counters(_run(streams, HugePagePolicy.PCC, tier))
    assert counters == reference, f"{tier} tier metrics diverged"


@pytest.mark.parametrize("tier", TIERS_UNDER_TEST)
@given(streams=any_page_streams)
@settings(max_examples=25, deadline=None)
def test_fast_path_survives_tight_promotion_intervals(tier, streams):
    """Frequent ticks (interval 32) maximize shootdown/invalidation
    traffic between quanta, and epochs too short to classify fall back
    to the fast loop."""
    config = tiny_config(cores=2)
    config = config.with_(os=replace(config.os, promote_every_accesses=32))
    _assert_tier_matches_scalar(
        tier, streams, HugePagePolicy.PCC, config=config
    )


@pytest.mark.parametrize("tier", TIERS_UNDER_TEST)
@given(
    streams=bursty_page_streams(),
    fragmentation=st.sampled_from([0.5, 0.9]),
)
@settings(max_examples=25, deadline=None)
def test_fast_path_survives_fragmentation_and_demotion(tier, streams,
                                                       fragmentation):
    """Fragmented memory forces fault-time huge failures and demotion
    churn — region-state transitions between the fast loop's quanta."""
    config = tiny_config(cores=2)
    params = KernelParams(
        regions_to_promote=config.os.regions_to_promote,
        demotion_enabled=True,
    )
    _assert_tier_matches_scalar(
        tier, streams, HugePagePolicy.PCC, config=config, params=params,
        fragmentation=fragmentation,
    )


@pytest.mark.parametrize("tier", TIERS_UNDER_TEST)
def test_fast_path_handles_1gb_backed_regions(tier):
    """1GB-backed regions are answered by a structure the L1 probe does
    not cover; every tier must route them through the full path."""
    from repro.experiments.ablations import giant_span_workload
    from repro.experiments.common import config_for

    workload = giant_span_workload(giga_regions=2, accesses=20_000)
    config = config_for(workload)
    config = config.with_(
        memory_bytes=4 << 30, pcc=replace(config.pcc, giga_enabled=True)
    )
    prints = {}
    for name in ("scalar", tier):
        simulator = Simulator(config, policy=HugePagePolicy.PCC, tier=name)
        result = simulator.run([copy.deepcopy(workload)])
        assert simulator.kernel._engine.stats.giga_promotions >= 1, name
        prints[name] = _result_fingerprint(result)
    assert prints[tier] == prints["scalar"]


def test_named_bfs_workload_is_bit_identical_on_every_tier():
    """A real graph workload, not only fuzz streams, must agree on all
    three tiers: BFS at the integration tests' TINY scale, under PCC."""
    from repro.experiments.common import build_named_workload, config_for
    from repro.validation.oracle import fingerprint

    workload = build_named_workload("BFS", graph_scale=10, proxy_accesses=25_000)
    config = config_for(workload)
    prints = {}
    for tier in ENGINE_TIERS:
        simulator = Simulator(config, policy=HugePagePolicy.PCC, tier=tier)
        prints[tier] = fingerprint(simulator.run([copy.deepcopy(workload)]))
    assert set(prints) == {"scalar", "fast", "columnar"}
    assert prints["fast"] == prints["scalar"]
    assert prints["columnar"] == prints["scalar"]
