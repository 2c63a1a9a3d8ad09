"""Runtime invariant monitor: armed runs pass, planted bugs trip it."""

import pytest

from repro.engine.machine import ENGINE_TIERS
from repro.engine.simulation import Simulator
from repro.os.kernel import HugePagePolicy
from repro.validation import defects
from repro.validation.generators import generate_case
from repro.validation.invariants import InvariantViolation
from repro.validation.oracle import run_case


def test_monitor_is_off_by_default():
    case = generate_case(0)
    simulator, _ = run_case(case, validate=False)
    assert simulator.monitor is None


def test_monitor_is_installed_and_quiet_on_healthy_runs():
    for seed in range(6):
        case = generate_case(seed)
        simulator, result = run_case(case, validate=True)
        monitor = simulator.monitor
        assert monitor is not None
        # the run completed, so every per-tick check already passed;
        # one more full sweep over final state must also hold
        monitor.check_all(simulator.ticks)
        assert result.accesses == case.total_accesses


@pytest.mark.parametrize("tier", ENGINE_TIERS)
def test_monitor_covers_every_tier(tier):
    case = generate_case(3)
    simulator, _ = run_case(case, tier=tier, validate=True)
    assert simulator.monitor is not None


def test_pcc_decay_defect_trips_the_counter_invariant():
    case = generate_case(0)
    with defects.inject("pcc-no-decay"):
        with pytest.raises(InvariantViolation) as exc:
            run_case(case, policy=HugePagePolicy.PCC)
    assert exc.value.domain.startswith("pcc.counter")


def test_region_count_defect_trips_the_pagetable_invariant():
    case = generate_case(0)
    with defects.inject("region-count-drift"):
        with pytest.raises(InvariantViolation) as exc:
            run_case(case, policy=HugePagePolicy.PCC)
    assert exc.value.domain.startswith("pagetable.region_count")


def test_violation_carries_machine_readable_fields():
    violation = InvariantViolation("tlb.occupancy", "too full")
    assert violation.domain == "tlb.occupancy"
    assert violation.detail == "too full"
    assert "tlb.occupancy" in str(violation)
    # an AssertionError subclass so bare `assert`-style handling works
    assert isinstance(violation, AssertionError)


def test_validate_flag_threads_through_the_simulator_facade():
    case = generate_case(1)
    simulator = Simulator(
        case.build_config().with_(cores=case.cores),
        policy=case.huge_policy(),
        params=case.build_params(),
        validate=True,
    )
    simulator.run([case.build_workload()])
    assert simulator.monitor is not None


def test_leaked_base_pages_defect_trips_the_frame_invariant():
    case = generate_case(0)
    with defects.inject("leaked-base-pages"):
        with pytest.raises(InvariantViolation) as exc:
            run_case(case, policy=HugePagePolicy.PCC)
    assert exc.value.domain == "frames.base"


def test_tier_comparison_is_blind_to_leaked_base_pages():
    from repro.validation.oracle import fingerprint

    case = generate_case(0)
    with defects.inject("leaked-base-pages"):
        prints = {
            tier: fingerprint(run_case(case, tier=tier, validate=False)[1])
            for tier in ENGINE_TIERS
        }
    assert prints["fast"] == prints["scalar"] == prints["columnar"]


@pytest.mark.parametrize(
    "policy", list(HugePagePolicy), ids=lambda policy: policy.name
)
def test_frames_are_conserved_under_fragmentation(policy):
    from repro.config import tiny_config
    from repro.os.kernel import KernelParams
    from tests.conftest import make_workload
    from tests.engine.test_simulation import hot_cold_addresses

    params = KernelParams(
        demotion_enabled=True,
        static_huge_regions=(0x5555_5540_0000 >> 21,),
    )
    simulator = Simulator(tiny_config(), policy=policy, params=params,
                          fragmentation=0.5, validate=True)
    simulator.run([make_workload(hot_cold_addresses(repeats=500))])
    monitor = simulator.monitor
    assert monitor.checks > 1
    monitor.check_frames()


def test_frames_are_conserved_across_1gb_promotions():
    import copy
    from dataclasses import replace

    from repro.experiments.ablations import giant_span_workload
    from repro.experiments.common import config_for

    workload = giant_span_workload(giga_regions=2, accesses=20_000)
    config = config_for(workload)
    config = config.with_(
        memory_bytes=4 << 30, pcc=replace(config.pcc, giga_enabled=True)
    )
    simulator = Simulator(config, policy=HugePagePolicy.PCC, validate=True)
    simulator.run([copy.deepcopy(workload)])
    assert simulator.kernel._engine.stats.giga_promotions >= 1
    assert simulator.kernel.physmem.huge_frames_in_use() >= 512


def test_a_frame_no_leaf_maps_breaks_conservation():
    case = generate_case(0)
    simulator, _ = run_case(case, policy=HugePagePolicy.PCC)
    simulator.kernel.physmem.allocate_huge(allow_compaction=True)
    with pytest.raises(InvariantViolation) as exc:
        simulator.monitor.check_frames()
    assert exc.value.domain == "frames.huge"
