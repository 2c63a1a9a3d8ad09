"""RunObserver: bulk walk samples and promotion lag on the run's clock.

A walk is clocked at its record's retired-access index in the run and a
promotion at its tick's, so a region's lag is the gap from its first
walk — the smallest clock, whatever order the batches arrive in — to
the promotion. A 1GB promotion's region is a gigabyte: its lag starts
at the first walk of any 2MB region inside it.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.core.dump import CandidateRecord
from repro.engine.simulation import Simulator
from repro.experiments.ablations import giant_span_workload
from repro.engine.machine import ENGINE_TIERS
from repro.experiments.common import config_for
from repro.metrics import MetricsRegistry
from repro.obs.observer import OBS_ENV, RunObserver
from repro.os.kernel import HugePagePolicy
from repro.vm.address import GIGA_PAGE_SHIFT, HUGE_PAGE_SHIFT, PageSize

#: 2MB regions per gigabyte
PER_GIGA = 1 << (GIGA_PAGE_SHIFT - HUGE_PAGE_SHIFT)


def _observer() -> RunObserver:
    return RunObserver(MetricsRegistry())


def _walks(observer, pid, regions, clocks, cycles=30):
    observer.note_walks(pid, np.asarray(regions, dtype=np.uint64),
                        np.full(len(regions), cycles, dtype=np.int64),
                        np.asarray(clocks, dtype=np.int64))


def test_note_walks_samples_every_walk_latency():
    observer = _observer()
    observer.note_walks(1, np.array([4, 4, 5], dtype=np.uint64),
                        np.array([30, 90, 30], dtype=np.int64),
                        np.array([0, 10, 20], dtype=np.int64))
    latency = observer.walk_latency
    assert latency.count == 3
    assert latency.total == 150
    assert (latency.min, latency.max) == (30, 90)


def test_a_region_keeps_its_earliest_walk_across_batches():
    observer = _observer()
    _walks(observer, 1, [7], [500])
    _walks(observer, 1, [7, 8], [200, 300])  # another slot's earlier round
    _walks(observer, 2, [7], [100])  # another process's region 7
    observer.note_promotions(
        [CandidateRecord(pid=1, core=0, tag=7, frequency=1)], 1_000)
    assert observer.promotion_lag.count == 1
    assert observer.promotion_lag.total == 800


def test_a_1gb_promotion_lags_from_the_first_walk_in_its_gigabyte():
    observer = _observer()
    giga = 3
    _walks(observer, 1, [giga * PER_GIGA + 9], [400])
    _walks(observer, 1, [giga, giga * PER_GIGA + 5, (giga + 1) * PER_GIGA],
           [10, 250, 260])
    observer.note_promotions(
        [CandidateRecord(pid=1, core=0, tag=giga, frequency=1,
                         page_size=PageSize.GIGA)], 1_000)
    # 2MB region 3 (clock 10) and the next gigabyte (clock 260) are not
    # inside gigabyte 3; its earliest walk is region 3*512+5 at 250
    assert observer.promotion_lag.count == 1
    assert observer.promotion_lag.total == 750


def test_a_promotion_without_a_walk_is_skipped():
    observer = _observer()
    _walks(observer, 1, [4], [0])
    observer.note_promotions(
        [CandidateRecord(pid=1, core=0, tag=5, frequency=1),
         CandidateRecord(pid=1, core=0, tag=1, frequency=1,
                         page_size=PageSize.GIGA)], 100)
    assert observer.promotion_lag.count == 0


@pytest.mark.parametrize("tier", ENGINE_TIERS)
def test_every_promotion_of_both_sizes_gets_a_lag_sample(monkeypatch, tier):
    monkeypatch.setenv(OBS_ENV, "1")
    workload = giant_span_workload(giga_regions=2, accesses=40_000)
    config = config_for(workload)
    config = config.with_(memory_bytes=4 << 30, pcc=replace(
        config.pcc, entries=32, giga_entries=8, giga_enabled=True))
    simulator = Simulator(config, policy=HugePagePolicy.PCC, tier=tier)
    result = simulator.run([copy.deepcopy(workload)])
    counters = result.metrics["counters"]
    assert counters["kernel.promotion.giga_promotions"] > 0
    distributions = result.metrics["distributions"]
    assert distributions["promotion_lag_accesses"]["count"] == result.promotions
    assert distributions["walk_latency_cycles"]["count"] == result.walks
