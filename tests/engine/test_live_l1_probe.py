"""The fast tier's only L1 shortcut is a probe of the live L1 set.

Nothing about the L1 is remembered between quanta, so a promotion tick,
the shootdowns it broadcasts and every fill the full path makes are
seen by the very next probe. Each case runs a hand-built page stream
through the fast tier and the scalar reference and requires every
statistic to match, under LRU and under tree-PLRU.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import tiny_config
from repro.engine.machine import Machine
from repro.engine.simulation import Simulator
from repro.os.kernel import HugePagePolicy
from repro.validation.oracle import fingerprint
from tests.conftest import make_workload
from tests.engine.test_simulation import hot_cold_addresses

BASE = 0x5555_5540_0000
REGION_PAGES = 512

#: page streams, in 4KB pages from BASE; the tiny L1 has two 2-way sets
STREAMS = {
    "alternate": [0, 1] * 40,
    "set-conflict": [0, 2, 4] * 30,
    "recency-refresh": [0, 2, 0, 4, 0, 2] * 10,
    "dwell": [page for page in range(12) for _ in range(6)],
    "sweep": list(range(64)) * 3,
    "region-hop": [0, REGION_PAGES, 2 * REGION_PAGES, 1] * 20,
}


def _addresses(pages) -> np.ndarray:
    pages = np.array(pages, dtype=np.uint64)
    return np.uint64(BASE) + pages * np.uint64(4096)


def _config(replacement: str):
    """The tiny config; under PLRU its L1/L2 sets widen to 4/8 ways,
    where tree-PLRU and LRU really differ."""
    config = tiny_config()
    if replacement == "lru":
        return config
    tlb = config.tlb
    tlb = replace(
        tlb,
        l1_base=replace(tlb.l1_base, entries=8, associativity=4),
        l2=replace(tlb.l2, entries=16, associativity=8),
    )
    return config.with_(tlb=tlb.with_replacement("plru"))


def _fingerprints(addresses, config, policy=HugePagePolicy.PCC):
    prints = {}
    for tier in ("scalar", "fast"):
        simulator = Simulator(config, policy=policy, tier=tier)
        prints[tier] = fingerprint(simulator.run([make_workload(addresses)]))
    return prints


@pytest.mark.parametrize("replacement", ["lru", "plru"])
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_fast_tier_matches_scalar(stream, replacement):
    prints = _fingerprints(_addresses(STREAMS[stream]), _config(replacement))
    assert prints["fast"] == prints["scalar"]


@pytest.mark.parametrize(
    "policy",
    [
        HugePagePolicy.NONE,
        HugePagePolicy.LINUX_THP,
        HugePagePolicy.HAWKEYE,
        HugePagePolicy.PCC,
        HugePagePolicy.IDEAL,
    ],
    ids=lambda policy: policy.name,
)
def test_fast_tier_matches_scalar_under_plru_for_every_policy(policy):
    """Promotions turn 4KB hits into 2MB hits mid-run; the probe of the
    2MB set must see each one from the quantum after its tick."""
    prints = _fingerprints(
        hot_cold_addresses(repeats=1500), _config("plru"), policy
    )
    assert prints["fast"] == prints["scalar"]


@pytest.mark.parametrize("replacement", ["lru", "plru"])
def test_fast_tier_matches_scalar_with_a_tick_every_eight_accesses(
    replacement,
):
    config = _config(replacement)
    config = config.with_(os=replace(config.os, promote_every_accesses=8))
    prints = _fingerprints(hot_cold_addresses(repeats=1500), config)
    assert prints["fast"] == prints["scalar"]


@pytest.mark.parametrize("replacement", ["lru", "plru"])
def test_probe_hit_refreshes_recency(replacement):
    """Pages 0, 2 and 4 share one 2-way set. The hit on 0 must make 2
    the least recent, so 4 evicts 2 and the final 2 misses the L1. A
    probe that left recency alone would evict 0 and hit on 2."""
    config = tiny_config()
    config = config.with_(tlb=config.tlb.with_replacement(replacement))
    machine = Machine(config, policy=HugePagePolicy.NONE, tier="fast")
    result = machine.run([make_workload(_addresses([0, 2, 0, 4, 2]))])
    assert machine.pipelines[0].fast_hits == 1
    assert result.l1_hits == 1
    assert result.l2_hits == 1
    assert result.walks == 3


def test_alternating_pages_hit_the_probe_after_their_first_walk():
    machine = Machine(tiny_config(), policy=HugePagePolicy.NONE, tier="fast")
    result = machine.run([make_workload(_addresses([0, 1] * 25))])
    pipeline = machine.pipelines[0]
    assert result.walks == 2
    assert pipeline.fast_hits == 48
    assert pipeline.slow_records == 2


def test_a_second_sync_changes_nothing():
    machine = Machine(tiny_config(), policy=HugePagePolicy.PCC)
    machine.run([make_workload(hot_cold_addresses(repeats=500))])
    core = machine.cores[0]
    before = (replace(core.stats), core.tlb.accesses,
              core.tlb.l1_base.stats.hits, core.tlb.l1_huge.stats.hits)
    machine.sync_pipelines()
    after = (replace(core.stats), core.tlb.accesses,
             core.tlb.l1_base.stats.hits, core.tlb.l1_huge.stats.hits)
    assert after == before
