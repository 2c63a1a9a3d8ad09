"""Engine tiers under the tree-PLRU knob.

The engine's upper tiers were built on LRU shortcuts (dict
reinsert as recency, the columnar epoch classifier's exact-LRU
algebra). Under ``tlb_replacement="plru"`` the fast loop's live-hit
tier performs the masked tree touch instead of the reinsert, and the
columnar tier runs each span, one live thread or several, as fault
pre-pass plus fast-loop replay (the classifier has no PLRU analogue). The observable
simulation must stay bit-identical across all three tiers — the same
guarantee the differential oracle enforces for LRU. PLRU epochs are
counted (``columnar_plru_fallbacks``) so operators can see them in
``repro inspect``.
"""

import pytest

from repro.engine.machine import ENGINE_TIERS
from repro.engine.simulation import Simulator
from repro.obs import inspect as inspect_module
from repro.validation.generators import generate_case
from repro.validation.oracle import fingerprint, run_case

#: wide geometry: off the all-2-way tiny default where PLRU == LRU
WIDE = {"l1_base": [8, 4], "l2": [16, 8]}


def _case(replacement):
    case = generate_case(
        5,
        min_threads=2,
        tlb_replacement=replacement if replacement != "lru" else None,
        tlb_geometry=WIDE,
    )
    # the engine's default quantum (this seed now draws 8): one round
    # covers each thread, so the spans are long enough to go columnar
    case.thread_quantum = 2048
    return case


def test_all_tiers_are_bit_identical_under_plru():
    case = _case("plru")
    prints = {}
    for tier in ENGINE_TIERS:
        _, result = run_case(case, tier=tier)
        prints[tier] = fingerprint(result)
    assert set(prints) == {"scalar", "fast", "columnar"}
    assert prints["fast"] == prints["scalar"]
    assert prints["columnar"] == prints["scalar"]


def _single_thread_run(seed, tier):
    """One-thread PLRU case under a base-backed policy (so the fault
    pre-pass batches), with a quantum small enough that the run spans
    several epochs and promotions land mid-run (so L1-2M hits occur)."""
    case = generate_case(seed, tlb_replacement="plru", tlb_geometry=WIDE)
    case.threads = case.threads[:1]
    case.policy = "PCC"
    simulator = Simulator(
        case.build_config().with_(cores=case.cores),
        policy=case.huge_policy(),
        params=case.build_params(),
        fragmentation=case.fragmentation,
        thread_quantum=64,
        validate=True,
        tier=tier,
    )
    result = simulator.run([case.build_workload()])
    return simulator.pipelines[0], result


@pytest.mark.parametrize("seed", [9, 11, 12])
def test_single_thread_plru_epochs_prefault_and_stay_exact(seed):
    runs = {tier: _single_thread_run(seed, tier)
            for tier in ENGINE_TIERS}
    prints = {tier: fingerprint(result)
              for tier, (_, result) in runs.items()}
    assert prints["fast"] == prints["scalar"]
    assert prints["columnar"] == prints["scalar"]

    columnar = runs["columnar"][0]
    assert columnar.columnar_plru_fallbacks > 0
    assert columnar.columnar_faults_batched > 0

    # Tier 2 answers every live L1-4K and L1-2M hit itself, so only
    # walks, L2 hits and L1-1G hits reach translate.
    for tier in ("fast", "columnar"):
        pipeline = runs[tier][0]
        core = pipeline.core
        assert core.tlb.l1_huge.stats.hits > 0
        assert pipeline.slow_records == (
            core.stats.walks
            + core.stats.l2_hits
            + core.tlb.l1_giga.stats.hits
        )


def test_multithread_plru_spans_prefault_and_stay_exact():
    """Two threads of equal length never leave a single live thread, so
    every columnar window is a multi-thread span: each must take the
    per-(round, slot) fault pre-pass before its replay."""
    case = generate_case(0, tlb_replacement="plru", tlb_geometry=WIDE)
    shift = case.window_pages // 2
    first = case.threads[0]
    case.threads = [first, [(p + shift) % case.window_pages for p in first]]
    case.policy = "PCC"
    runs = {}
    for tier in ("scalar", "columnar"):
        simulator = Simulator(
            case.build_config().with_(cores=2),
            policy=case.huge_policy(),
            params=case.build_params(),
            fragmentation=case.fragmentation,
            thread_quantum=64,
            validate=True,
            tier=tier,
        )
        result = simulator.run([case.build_workload()])
        runs[tier] = (simulator.pipelines, result)
    assert fingerprint(runs["columnar"][1]) == fingerprint(runs["scalar"][1])
    pipelines = runs["columnar"][0]
    # Spans count once, on the first live slot's core; core 1 never
    # ran a single-thread epoch.
    assert pipelines[0].columnar_plru_fallbacks > 0
    assert pipelines[1].columnar_plru_fallbacks == 0
    assert all(p.columnar_faults_batched > 0 for p in pipelines)


def test_plru_and_lru_actually_diverge_on_wide_sets():
    """The knob must be live: identical runs under the two policies may
    not produce identical translation behaviour on 4/8-way sets (if
    they did, the ablation axis would be measuring nothing)."""
    _, lru = run_case(_case("lru"), tier="scalar")
    _, plru = run_case(_case("plru"), tier="scalar")
    assert fingerprint(lru) != fingerprint(plru)


def test_columnar_fallback_is_counted_under_plru():
    simulator, _ = run_case(_case("plru"), tier="columnar")
    metrics = {}
    for index, pipeline in enumerate(simulator.pipelines):
        metrics.update(pipeline.as_metrics(f"core{index}.fastpath"))
    fallbacks = sum(
        value
        for name, value in metrics.items()
        if name.endswith(".columnar_plru_fallbacks")
    )
    assert fallbacks > 0


def test_columnar_fallback_stays_zero_under_lru():
    simulator, _ = run_case(_case("lru"), tier="columnar")
    for pipeline in simulator.pipelines:
        assert pipeline.columnar_plru_fallbacks == 0


def test_inspect_renders_the_fallback_counter():
    """The counter rides the generic ``core<N>.fastpath.*`` export, so
    ``repro inspect`` must fold and print it with the other tier
    instrumentation."""
    doc = {
        "schema": "repro.metrics/v1",
        "run_id": "t",
        "runs": [
            {
                "meta": {},
                "counters": {
                    "core0.fastpath.columnar_plru_fallbacks": 3,
                    "core1.fastpath.columnar_plru_fallbacks": 2,
                },
            }
        ],
    }
    summary = inspect_module.summarize_metrics(doc)
    assert summary["engine_tiers"]["columnar_plru_fallbacks"] == 5
    rendered = inspect_module.render(
        inspect_module.inspect_document(doc, top=5)
    )
    assert "columnar_plru_fallbacks" in rendered
