"""One columnar span for any number of live threads.

A single-thread run is the one-slot case of the round-robin span
(``Machine._columnar_span`` plans it, ``TranslationPipeline.run_epoch``
retires it). These tests pin the span's edges against the fast and
scalar tiers, stat for stat: live slots dropping 3 -> 2 -> 1 mid-run
under LRU and tree-PLRU, a lone slot on a shared PCC, and a lone
slot's single fault pre-pass per span.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import tiny_config
from repro.engine.machine import TranslationPipeline
from repro.engine.simulation import Simulator
from repro.engine.system import ProcessWorkload
from repro.os.kernel import HugePagePolicy, SimulatedKernel
from repro.trace.events import Trace
from repro.validation.oracle import _counters, fingerprint
from repro.vm.layout import AddressSpaceLayout

BASE = 0x5555_5540_0000
#: pages in the one VMA every thread draws from
WINDOW = 2048


def _workload(streams) -> ProcessWorkload:
    layout = AddressSpaceLayout.from_vmas({"data": (BASE, WINDOW << 12)})
    traces = [
        Trace(f"t{i}", np.uint64(BASE) + np.asarray(pages, np.uint64)
              * np.uint64(4096), footprint_bytes=WINDOW << 12)
        for i, pages in enumerate(streams)
    ]
    if len(traces) == 1:
        return ProcessWorkload.single_thread(traces[0], layout, "spans")
    return ProcessWorkload.multi_thread(traces, layout, "spans")


def _unequal_streams():
    """Three threads of 6000, 3500 and 1500 accesses over shared pages,
    so thread 2 runs out first, then thread 1."""
    rng = np.random.default_rng(7)
    return [rng.integers(0, 400, size=n) for n in (6000, 3500, 1500)]


def _config(cores, replacement="lru", shared_pcc=False):
    config = tiny_config(cores=cores)
    config = config.with_(os=replace(config.os, promote_every_accesses=512))
    if replacement != "lru":
        # 4-way L1-4K and 8-way L2, where tree-PLRU differs from LRU
        tlb = replace(config.tlb,
                      l1_base=replace(config.tlb.l1_base, entries=8,
                                      associativity=4),
                      l2=replace(config.tlb.l2, entries=16, associativity=8))
        config = config.with_(tlb=tlb.with_replacement(replacement))
    if shared_pcc:
        config = config.with_(pcc=replace(config.pcc, shared=True))
    return config


def _run(config, streams, tier, policy=HugePagePolicy.PCC):
    simulator = Simulator(config, policy=policy, thread_quantum=64,
                          validate=True, tier=tier)
    result = simulator.run([_workload(streams)])
    return simulator, result


def _stats(result) -> tuple:
    """Every observable plus every metric outside the tier counters."""
    return fingerprint(result), _counters(result)


def _assert_tiers_agree(config, streams, policy=HugePagePolicy.PCC):
    _, scalar = _run(config, streams, "scalar", policy)
    _, fast = _run(config, streams, "fast", policy)
    assert _stats(fast) == _stats(scalar)
    machine, columnar = _run(config, streams, "columnar", policy)
    assert _stats(columnar) == _stats(scalar)
    return machine


@pytest.fixture
def spans(monkeypatch):
    """Record every span ``run_epoch`` sees: live slots, whether it
    retired, pipeline 0's epoch count before it, and the bulk fault
    calls it made."""
    original = TranslationPipeline.run_epoch
    bulk_calls = []
    original_bulk = SimulatedKernel.handle_faults_bulk

    def counting_bulk(self, pid, vaddrs):
        bulk_calls.append(len(vaddrs))
        return original_bulk(self, pid, vaddrs)

    records = []

    def spy(cls, pipelines, slots, ends, tables, charge_faults,
            note_walks=None):
        before = len(bulk_calls)
        epochs = pipelines[0].columnar_epochs
        results = original(pipelines, slots, ends, tables, charge_faults,
                           note_walks)
        records.append({"slots": len(slots), "retired": results is not None,
                        "epochs_before": epochs,
                        "bulk_calls": len(bulk_calls) - before})
        return results

    monkeypatch.setattr(TranslationPipeline, "run_epoch", classmethod(spy))
    monkeypatch.setattr(SimulatedKernel, "handle_faults_bulk", counting_bulk)
    return records


@pytest.mark.parametrize("replacement", ["lru", "plru"])
def test_live_slots_dropping_to_one_keep_every_tier_exact(spans, replacement):
    machine = _assert_tiers_agree(_config(3, replacement), _unequal_streams())
    live = [span["slots"] for span in spans]
    assert live == sorted(live, reverse=True)
    assert {3, 2, 1} <= set(live)

    pipelines = machine.pipelines
    multi = [span for span in spans if span["slots"] > 1]
    assert all(span["retired"] for span in spans)
    # columnar_mt_epochs counts one epoch per slot of multi-slot spans
    assert (sum(p.columnar_mt_epochs for p in pipelines)
            == sum(span["slots"] for span in multi))
    # thread 0 outlives the others: its lone spans still retire as epochs
    first_lone = next(span for span in spans if span["slots"] == 1)
    assert pipelines[0].columnar_epochs > first_lone["epochs_before"]
    lone = len(spans) - len(multi)
    assert (pipelines[0].columnar_epochs
            == pipelines[0].columnar_mt_epochs + lone)


def test_lone_slot_on_a_shared_pcc_still_epochs(spans):
    streams = _unequal_streams()[:1]
    machine = _assert_tiers_agree(_config(1, shared_pcc=True), streams)
    assert spans and all(span["slots"] == 1 for span in spans)
    assert machine.pipelines[0].columnar_epochs == len(spans)
    assert machine.pipelines[0].columnar_mt_epochs == 0


def test_shared_pcc_gates_only_multi_slot_spans(spans):
    """Two threads on one shared PCC take the quantum loop until one
    is left; the survivor's span epochs again."""
    streams = _unequal_streams()[:2]
    machine = _assert_tiers_agree(_config(2, shared_pcc=True), streams)
    assert spans and all(span["slots"] == 1 for span in spans)
    assert sum(p.columnar_mt_epochs for p in machine.pipelines) == 0


def test_lone_slot_span_makes_one_bulk_fault_call(spans):
    """A base-backed policy pre-faults a lone slot's whole multi-round
    span in one ``handle_faults_bulk`` call."""
    # every access a fresh page: each span has first touches to fault
    streams = [np.arange(WINDOW)]
    machine = _assert_tiers_agree(_config(1), streams,
                                  policy=HugePagePolicy.NONE)
    assert spans and all(span["retired"] for span in spans)
    assert [span["bulk_calls"] for span in spans] == [1] * len(spans)
    assert machine.pipelines[0].columnar_faults_batched == WINDOW


def test_merged_page_table_pass_follows_scalar_walk_order(spans):
    """Two threads on two cores first-walk one never-walked 2MB region
    in one span: thread 1 in round 0, thread 0 only in round 1.

    Only the first walk of a region sees its PMD accessed bit clear and
    withholds its PCC candidate, so the candidate belongs to whichever
    walk comes first in scalar (round, slot) order — thread 1's. Taking
    the walks slot by slot would hand it to thread 0 instead.
    """
    region_x = np.arange(0, 512)
    region_1 = np.arange(512, 1024)
    streams = [
        # round 0 in region 1, then region X from round 1 on
        np.concatenate([region_1[:64], region_x[:192]]),
        # region X from round 0 on
        region_x[256:512],
    ]
    config = _config(2)
    reference, scalar = _run(config, streams, "scalar")
    machine, columnar = _run(config, streams, "columnar")
    assert _stats(columnar) == _stats(scalar)
    # the whole first interval retired as one two-slot span
    assert spans[0]["slots"] == 2 and spans[0]["retired"]

    def candidates(m):
        return [core.walker.stats.pcc_candidates_2mb for core in m.cores]

    # each core withholds exactly one candidate: its first walk of a
    # never-walked region (region 1 on core 0, region X on core 1)
    assert candidates(reference) == [255, 255]
    assert candidates(machine) == candidates(reference)
