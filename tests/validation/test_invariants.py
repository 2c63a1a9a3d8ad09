"""Runtime invariant monitor: armed runs pass, planted bugs trip it."""

import pytest

from repro.engine.simulation import Simulator
from repro.os.kernel import HugePagePolicy
from repro.validation import defects
from repro.validation.generators import generate_case
from repro.validation.invariants import InvariantViolation
from repro.experiments.common import ENGINE_TIER_SWITCHES
from repro.validation.oracle import run_case


def test_monitor_is_off_by_default():
    case = generate_case(0)
    simulator, _ = run_case(case, validate=False)
    assert simulator.machine.monitor is None


def test_monitor_is_installed_and_quiet_on_healthy_runs():
    for seed in range(6):
        case = generate_case(seed)
        simulator, result = run_case(case, validate=True)
        monitor = simulator.machine.monitor
        assert monitor is not None
        # the run completed, so every per-tick check already passed;
        # one more full sweep over final state must also hold
        monitor.check_all(simulator.machine.ticks)
        assert result.accesses == case.total_accesses


@pytest.mark.parametrize("tier", sorted(ENGINE_TIER_SWITCHES))
def test_monitor_covers_every_tier(tier):
    case = generate_case(3)
    simulator, _ = run_case(case, tier=tier, validate=True)
    assert simulator.machine.monitor is not None


def test_stale_hint_defect_trips_the_hint_invariant():
    case = generate_case(0)
    with defects.inject("stale-hints"):
        with pytest.raises(InvariantViolation) as exc:
            run_case(case, tier="fast", policy=HugePagePolicy.PCC)
    assert exc.value.domain.startswith("fastpath.hint")


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
    assert simulator.machine.monitor is not None
