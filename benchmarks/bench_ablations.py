"""Ablations — the design choices §3.2 and §5.4 discuss.

* Replacement policy: LFU-with-LRU-tiebreak vs plain LRU eviction in
  the PCC (the paper found little difference at adequate sizes).
* Page-walk caches: PWCs shorten walks, the PCC removes them; the two
  are complementary, not redundant (§5.4.1).
* 1GB PCC: a hot set spanning multiple gigabytes defeats 2MB entries;
  the companion PCC plus the §3.2.3 dominance rule recovers it.
"""

import copy

from benchmarks.conftest import run_once
from repro.config import PCCConfig, scaled_config
from repro.engine.simulation import Simulator
from repro.experiments import ablations
from repro.os.kernel import HugePagePolicy


def test_ablation_replacement_policy(benchmark, scale, publish):
    rows = run_once(benchmark, lambda: ablations.run_replacement(scale))
    publish("ablation_replacement", ablations.render_replacement(rows))

    for row in rows:
        # the paper: "we did not find replacement policy changes to have
        # significant impact" at adequate sizes
        if row.pcc_entries >= 32:
            assert abs(row.speedup_lfu - row.speedup_lru) < 0.25, row


def test_ablation_page_walk_caches(benchmark, scale, publish):
    rows = run_once(benchmark, lambda: ablations.run_pwc(scale))
    publish("ablation_pwc", ablations.render_pwc(rows))

    for row in rows:
        # PWCs shorten walks measurably...
        assert row.refs_per_walk_pwc < row.refs_per_walk_no_pwc, row
        assert row.speedup_pwc_only > 1.02, row
        # ...yet the PCC still finds real speedup on top of them,
        # because PWCs cannot remove TLB misses (§5.4.1)
        assert row.speedup_pcc_on_top > 1.1, row


def test_ablation_1gb_pcc(benchmark, publish):
    def run():
        workload = ablations.giant_span_workload(
            giga_regions=2, accesses=120_000
        )
        config = scaled_config(memory_bytes=4 << 30).with_(
            pcc=PCCConfig(entries=32, giga_entries=8, giga_enabled=True)
        )
        baseline = Simulator(config, policy=HugePagePolicy.NONE).run(
            [copy.deepcopy(workload)]
        )
        sim = Simulator(config, policy=HugePagePolicy.PCC)
        pcc = sim.run([copy.deepcopy(workload)])
        # fully fragmented memory leaves no 1GB-aligned run to claim
        fragmented = Simulator(config, policy=HugePagePolicy.PCC,
                               fragmentation=1.0)
        fragmented.run([copy.deepcopy(workload)])
        return (baseline, pcc, sim.kernel._engine.stats,
                fragmented.kernel._engine.stats)

    baseline, pcc, stats, frag_stats = run_once(benchmark, run)
    from repro.analysis import report

    text = "\n".join(
        [
            "Ablation — 1GB PCC on a multi-GB-span hot set (§3.2.3)",
            f"baseline TLB miss: {report.percent(baseline.walk_rate)}",
            f"PCC(2MB+1GB) TLB miss: {report.percent(pcc.walk_rate)}",
            f"speedup: {report.speedup(baseline.total_cycles / pcc.total_cycles)}",
            f"2MB promotions: {stats.promotions}, "
            f"1GB collective promotions: {stats.giga_promotions}",
            f"100% fragmented: 1GB promotions: {frag_stats.giga_promotions}, "
            f"refused promotions: {frag_stats.promotion_failures}",
        ]
    )
    publish("ablation_1gb_pcc", text)

    # the hot set defeats 4KB entirely and 1GB promotion recovers it
    assert baseline.walk_rate > 0.9
    assert stats.giga_promotions >= 1
    assert pcc.walk_rate < 0.6 * baseline.walk_rate
    assert baseline.total_cycles / pcc.total_cycles > 1.4
    # 1GB pages take real frames: fragmentation refuses them
    assert frag_stats.giga_promotions == 0
