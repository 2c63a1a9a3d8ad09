"""The planted defects: reversible patches, each blind where it claims.

A defect is only a fair test of the harness if it is installed exactly
for the block that asks for it and leaves no trace afterwards, even when
that block raises. ``lost-fast-hits`` additionally claims to be
self-consistent: the scalar reference never batches, so it cannot see
the defect, and every runtime invariant still balances, so only tier
comparison can.
"""

import numpy as np
import pytest

from repro.config import TLBConfig, tiny_config
from repro.core.pcc import PromotionCandidateCache
from repro.engine import columnar
from repro.engine import machine as machine_module
from repro.engine import residue
from repro.engine.machine import Machine, TranslationPipeline
from repro.os.kernel import HugePagePolicy
from repro.os.physmem import PhysicalMemory
from repro.tlb import plru
from repro.tlb.tlb import TLB
from repro.validation import defects
from repro.validation.generators import generate_case
from repro.validation.oracle import (
    ValidationFailure,
    check_case,
    fingerprint,
    run_case,
)
from repro.vm.address import PageSize
from repro.vm.pagetable import PageTable
from tests.conftest import make_workload

BASE = 0x5555_5540_0000

#: defect name -> (owner, attribute) its patch replaces
PATCHED = {
    "lost-fast-hits": (TranslationPipeline, "sync"),
    "pcc-no-decay": (PromotionCandidateCache, "_decay"),
    "region-count-drift": (PageTable, "map_base"),
    "tlb-plru-drift": (plru, "victim"),
    "leaked-base-pages": (PhysicalMemory, "release_base_pages"),
    "slot-order-faults": (machine_module, "_fault_windows"),
    "span-core-alias": (residue, "span_set_ids"),
    "plru-span-empty-way": (columnar, "_free_way"),
    "walk-clock-at-start": (machine_module, "_note_walks"),
}


def test_every_defect_names_its_patch():
    assert set(PATCHED) == set(defects.DEFECTS)


@pytest.mark.parametrize("name", sorted(PATCHED))
def test_inject_patches_only_inside_the_block(name):
    owner, attribute = PATCHED[name]
    original = getattr(owner, attribute)
    with defects.inject(name):
        assert getattr(owner, attribute) is not original
    assert getattr(owner, attribute) is original


@pytest.mark.parametrize("name", sorted(PATCHED))
def test_inject_restores_after_an_exception(name):
    owner, attribute = PATCHED[name]
    original = getattr(owner, attribute)
    with pytest.raises(RuntimeError, match="inside"):
        with defects.inject(name):
            raise RuntimeError("inside the block")
    assert getattr(owner, attribute) is original


def test_unknown_defect_is_rejected_with_the_choices():
    with pytest.raises(ValueError, match="lost-fast-hits"):
        with defects.inject("no-such-defect"):
            pass


def _huge_hit_machine():
    """IDEAL backs the region with 2MB at fault time, so every repeat
    access of the two alternating pages is a fast 2MB L1 hit."""
    machine = Machine(tiny_config(), policy=HugePagePolicy.IDEAL)
    pages = [0, 1] * 25
    addresses = np.array([BASE + page * 4096 for page in pages], dtype=np.uint64)
    result = machine.run([make_workload(addresses)])
    return machine, result


def test_lost_fast_hits_drops_exactly_the_fast_2mb_hits():
    healthy, healthy_result = _huge_hit_machine()
    with defects.inject("lost-fast-hits"):
        broken, broken_result = _huge_hit_machine()
    lost = healthy.pipelines[0].fast_hits
    assert lost > 0
    good_tlb, bad_tlb = healthy.cores[0].tlb, broken.cores[0].tlb
    assert bad_tlb.l1_huge.stats.hits == good_tlb.l1_huge.stats.hits - lost
    assert bad_tlb.accesses == good_tlb.accesses - lost
    # the core's own counters are untouched: walks, hits and cycles agree
    assert broken_result.walks == healthy_result.walks
    assert broken_result.l1_hits == healthy_result.l1_hits
    assert broken_result.total_cycles == healthy_result.total_cycles


def test_scalar_reference_is_blind_to_lost_fast_hits():
    case = generate_case(5)
    _, healthy = run_case(case, tier="scalar")
    with defects.inject("lost-fast-hits"):
        _, broken = run_case(case, tier="scalar")
    assert fingerprint(broken) == fingerprint(healthy)


def test_lost_fast_hits_keeps_every_invariant_balanced():
    case = generate_case(5)
    with defects.inject("lost-fast-hits"):
        simulator, result = run_case(case, tier="fast", validate=True)
        simulator.monitor.check_all(simulator.ticks)
    assert result.accesses == case.total_accesses


def test_slot_order_faults_is_inert_on_one_thread():
    """A lone slot's span has one fault window: nothing to reorder."""
    case = generate_case(0)
    assert len(case.threads) == 1
    _, healthy = run_case(case, tier="columnar")
    with defects.inject("slot-order-faults"):
        _, broken = run_case(case, tier="columnar")
    assert fingerprint(broken) == fingerprint(healthy)


def test_span_core_alias_is_inert_on_one_thread():
    """A lone slot's core offset is zero: nothing to drop."""
    case = generate_case(0)
    assert len(case.threads) == 1
    _, healthy = run_case(case, tier="columnar")
    with defects.inject("span-core-alias"):
        _, broken = run_case(case, tier="columnar")
    assert fingerprint(broken) == fingerprint(healthy)


def test_span_core_alias_moves_only_the_l2():
    """The patched helper drops the offset for the L2 alone."""
    config = TLBConfig(8, 2, (PageSize.BASE,))
    slots = np.array([0, 1, 1], dtype=np.intp)
    local = np.array([3, 0, 2], dtype=np.intp)
    with defects.inject("span-core-alias"):
        l2 = residue.span_set_ids([TLB(config, "L2")] * 2, slots, local)
        l1 = residue.span_set_ids([TLB(config, "L1-4K")] * 2, slots, local)
    assert l2.tolist() == [3, 0, 2]
    assert l1.tolist() == [3, 4, 6]


def test_plru_span_empty_way_is_caught_by_the_tier_oracle():
    """One fixed 3-way PLRU case, unshrunk: the tree's pick for a fill
    into a set with an empty way is not the lowest empty way, so the
    columnar span diverges from the scalar reference."""
    case = generate_case(1, tlb_replacement="plru",
                         tlb_geometry={"l1_base": [6, 3], "l2": [12, 3]})
    check_case(case)
    with defects.inject("plru-span-empty-way"):
        with pytest.raises(ValidationFailure) as excinfo:
            check_case(case)
    assert excinfo.value.domain == "tier.columnar"


def test_plru_span_empty_way_is_inert_under_lru():
    """LRU spans never reach the PLRU classifier."""
    case = generate_case(1, tlb_geometry={"l1_base": [6, 3], "l2": [12, 3]})
    _, healthy = run_case(case, tier="columnar")
    with defects.inject("plru-span-empty-way"):
        _, broken = run_case(case, tier="columnar")
    assert fingerprint(broken) == fingerprint(healthy)


def test_walk_clock_at_start_moves_only_the_lag_histogram(monkeypatch):
    """Every tier still simulates and samples walks exactly; the lag of
    a region first walked mid-span now depends on the tier."""
    from repro.obs.observer import OBS_ENV

    monkeypatch.setenv(OBS_ENV, "1")
    case = generate_case(0)
    _, healthy = run_case(case, tier="columnar")
    with defects.inject("walk-clock-at-start"):
        _, scalar = run_case(case, tier="scalar")
        _, broken = run_case(case, tier="columnar")
    assert fingerprint(broken) == fingerprint(healthy)
    assert fingerprint(scalar) == fingerprint(healthy)
    healthy_d, broken_d, scalar_d = (
        run.metrics["distributions"] for run in (healthy, broken, scalar))
    assert broken_d["walk_latency_cycles"] == healthy_d["walk_latency_cycles"]
    lags = [d["promotion_lag_accesses"] for d in (broken_d, scalar_d)]
    assert lags[0]["count"] == lags[1]["count"] > 0
    assert lags[0] != lags[1]
