"""One quantum window rule, shared by every tier.

A quantum retires whole trace records until their accesses reach the
quantum or the trace ends. ``_ThreadSlot.window_end`` is the only code
that states the rule: the scalar and fast quantum loops and the
columnar span planner all call it. Because the tiers share it, the
tier-equivalence suites cannot see a defect in it — every tier would
drift together — so these properties pin it to a brute-force loop
written here, over streams whose run lengths reach several quanta:

1. ``window_end`` equals the brute-force loop from every cursor;
2. on the scalar and fast tiers, ``run_quantum`` returns that cursor
   and accesses equal to the window's run-length sum, quantum after
   quantum to the end of the trace;
3. a columnar span's planned ``ends`` are successive window ends from
   each slot's cursor, under LRU (committed spans) and tree-PLRU
   (replayed spans).
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.engine.columnar import ColumnarStream
from repro.engine.cpu import Core
from repro.engine.machine import Machine, ThreadScheduler, TranslationPipeline
from repro.engine.system import ProcessWorkload, ThreadWorkload
from repro.os.kernel import HugePagePolicy
from repro.trace.events import CompressedTrace
from repro.vm.layout import AddressSpaceLayout

BASE = 0x5555_5540_0000
#: pages in each process's one VMA: four 2MB regions
WINDOW = 2048
QUANTA = (1, 8, 2048)


def brute_window_end(counts, cursor: int, quantum: int) -> int:
    """The scalar loop's window: spend the quantum record by record."""
    budget = quantum
    i = cursor
    while budget > 0 and i < len(counts):
        budget -= counts[i]
        i += 1
    return i


@st.composite
def thread_traces(draw, quantum, min_records=1, max_records=120):
    """One thread's (pages, run lengths), the run lengths reaching
    several quanta."""
    n = draw(st.integers(min_records, max_records))
    run = st.one_of(st.integers(1, 3), st.integers(1, 3 * quantum + 2))
    counts = draw(st.lists(run, min_size=n, max_size=n))
    pages = draw(st.lists(st.integers(0, WINDOW - 1), min_size=n,
                          max_size=n))
    return pages, counts


@st.composite
def quantum_streams(draw):
    """A quantum and one thread's trace."""
    quantum = draw(st.sampled_from(QUANTA))
    return (quantum, *draw(thread_traces(quantum)))


@st.composite
def span_cases(draw):
    """A quantum and one to three threads' traces, long enough that a
    span's windows reach the epoch minimum."""
    quantum = draw(st.sampled_from(QUANTA))
    traces = draw(st.lists(thread_traces(quantum, 70, 200), min_size=1,
                           max_size=3))
    return quantum, traces


def _stream(pages, counts) -> ColumnarStream:
    vpns = np.uint64(BASE >> 12) + np.asarray(pages, dtype=np.uint64)
    return ColumnarStream.encode(vpns, np.asarray(counts, dtype=np.int64))


def _workload(name, pages, counts) -> ProcessWorkload:
    stream = _stream(pages, counts)
    trace = CompressedTrace(
        name=name, vpns=stream.vpns, counts=stream.counts,
        total_accesses=stream.total_accesses, footprint_bytes=WINDOW << 12,
    )
    layout = AddressSpaceLayout.from_vmas({"data": (BASE, WINDOW << 12)})
    return ProcessWorkload(name, layout, [ThreadWorkload(trace)])


@given(case=quantum_streams())
@settings(max_examples=150, deadline=None)
def test_window_end_matches_the_brute_force_loop(case):
    quantum, pages, counts = case
    slot = ThreadScheduler().add(
        _stream(pages, counts), pid=1, core_id=0, seen=set(),
        fault=lambda pid, vaddr: None)
    for cursor in range(len(counts)):
        assert slot.window_end(cursor, quantum) == brute_window_end(
            counts, cursor, quantum)


@pytest.mark.parametrize("tier", ["scalar", "fast"])
@given(case=quantum_streams())
@settings(max_examples=40, deadline=None)
def test_run_quantum_retires_one_window(tier, case):
    quantum, pages, counts = case
    config = tiny_config()
    config = config.with_(os=replace(config.os, promote_every_accesses=10**9))
    machine = Machine(config, policy=HugePagePolicy.NONE, tier=tier,
                      thread_quantum=quantum)
    workloads = [_workload("w", pages, counts)]
    machine._assign_ids(workloads)
    machine.cores = [Core(config, core_id=0)]
    machine.pipelines = [TranslationPipeline(machine.cores[0], tier=tier)]
    scheduler = machine._bind_threads(workloads)
    (slot,) = scheduler.slots
    pipeline = machine.pipelines[slot.core_id]
    table = machine.kernel.processes[slot.pid].page_table
    while slot.cursor < slot.length:
        start = slot.cursor
        end = brute_window_end(counts, start, quantum)
        cursor, accesses, _, _ = pipeline.run_quantum(slot, quantum, table)
        assert cursor == end
        assert accesses == sum(counts[start:end])
        scheduler.advance(slot, cursor)


def _planned_spans(config, quantum, traces) -> list:
    """Every span ``_columnar_span`` planned over a whole columnar run:
    each live slot's run lengths, its cursor and its planned ends."""
    spans = []
    run_epoch = TranslationPipeline.run_epoch

    def recording(pipelines, slots, ends, *args, **kwargs):
        spans.append([(counts_of[id(slot.stream)], slot.cursor, list(e))
                      for slot, e in zip(slots, ends)])
        return run_epoch(pipelines, slots, ends, *args, **kwargs)

    workloads = [_workload(f"t{k}", pages, counts)
                 for k, (pages, counts) in enumerate(traces)]
    counts_of = {id(w.threads[0].columnar_stream()): counts
                 for w, (_, counts) in zip(workloads, traces)}
    machine = Machine(config, policy=HugePagePolicy.PCC,
                      thread_quantum=quantum)
    with mock.patch.object(TranslationPipeline, "run_epoch", recording):
        machine.run(workloads)
    return spans


def _assert_successive_windows(spans, quantum) -> None:
    for span in spans:
        for counts, cursor, ends in span:
            for end in ends:
                assert end == brute_window_end(counts, cursor, quantum)
                cursor = end


def _config(cores, replacement, interval):
    config = tiny_config(cores=cores)
    return config.with_(
        tlb=config.tlb.with_replacement(replacement),
        os=replace(config.os, promote_every_accesses=interval),
    )


@given(
    case=span_cases(),
    replacement=st.sampled_from(("lru", "plru")),
    interval=st.sampled_from((500, 20_000, 10**9)),
)
@settings(max_examples=30, deadline=None)
def test_span_plans_successive_window_ends(case, replacement, interval):
    quantum, traces = case
    config = _config(len(traces), replacement, interval)
    _assert_successive_windows(_planned_spans(config, quantum, traces),
                               quantum)


@pytest.mark.parametrize("quantum", QUANTA)
@pytest.mark.parametrize("replacement", ["lru", "plru"])
def test_spans_are_planned_at_every_quantum(quantum, replacement):
    """The planner runs at each quantum (the property above only checks
    the spans its draws happen to plan)."""
    rng = np.random.default_rng(quantum)
    traces = [(rng.integers(0, WINDOW, 300).tolist(),
               rng.integers(1, 3 * quantum + 3, 300).tolist())
              for _ in range(2)]
    spans = _planned_spans(_config(2, replacement, 10**9), quantum, traces)
    assert spans
    _assert_successive_windows(spans, quantum)
