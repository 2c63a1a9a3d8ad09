"""One classification pass per span equals one pass per core.

A columnar span classifies every live slot's window at once: each LRU
structure is one classifier call over all cores' sets (slot k's set s
at ``k * nsets + s``), the PWC levels and the walk plan take every
slot's walker, and ``TranslationPipeline._epoch_finish`` splits the
results back per core. The span gates (one slot per core, no shared
PCC) make every (core, set) stream private, so the one-pass span must
equal K separate one-slot passes exactly. These properties check it at
each layer, over 1-8 cores and the ``tiny_config`` and
``scaled_config`` geometries, with random initial contents, random PWC
memos, and empty and one-record segments:

1. ``_classify_sets`` / ``_rebuild_sets``: hits, final contents,
   evictions and the rebuilt set dicts (stored values included);
2. ``residue.plan_walks`` / ``apply_walk_plan``: per-walk cycles, PWC
   outcomes and end states, final memos, walker stats; and the L2
   alias check with tags keyed by core;
3. ``TranslationPipeline.run_epoch``: the per-slot result tuples and
   every core's end state, for K single-thread processes.
"""

from dataclasses import asdict, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WalkerConfig, scaled_config, tiny_config
from repro.engine import residue
from repro.engine.cpu import Core
from repro.engine.machine import (
    Machine,
    TranslationPipeline,
    _classify_sets,
    _rebuild_sets,
)
from repro.engine.system import ProcessWorkload
from repro.os.kernel import HugePagePolicy
from repro.tlb.tlb import TLB
from repro.tlb.walker import PageTableWalker
from repro.trace.events import Trace
from repro.vm.address import PageSize
from repro.vm.layout import AddressSpaceLayout

_ENTRY_BASE = int(PageSize.BASE)
_ENTRY_HUGE = int(PageSize.HUGE)

#: segment lengths: empty and one-record segments drawn often
_LENGTHS = st.one_of(st.sampled_from((0, 1)), st.integers(0, 90))


def _geometry(name: str, cores: int = 1):
    return (tiny_config(cores=cores) if name == "tiny"
            else scaled_config(cores=cores))


def _segments(lengths):
    """Per-touch slot ids and each slot's [lo, hi) cut."""
    bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(int)
    slots = np.repeat(np.arange(len(lengths)), lengths).astype(np.intp)
    return slots, list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


# ----------------------------------------------------------------------
# 1. the classified LRU structures


@st.composite
def structure_spans(draw):
    geometry = draw(st.sampled_from(("tiny", "scaled")))
    which = draw(st.sampled_from(("l1_base", "l1_huge", "l1_giga", "l2")))
    lengths = draw(st.lists(_LENGTHS, min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**31 - 1))
    return geometry, which, lengths, seed


def _twin_structures(config, name, cores, rng):
    """Two identical lists of per-core structures, randomly prefilled."""
    vocab = 3 * config.entries
    ours = [TLB(config, name) for _ in range(cores)]
    theirs = [TLB(config, name) for _ in range(cores)]
    for mine, twin in zip(ours, theirs):
        count = int(rng.integers(0, config.entries + 1))
        for tag, huge in zip(rng.integers(0, vocab, count).tolist(),
                             rng.integers(0, 2, count).tolist()):
            value = _ENTRY_HUGE if huge else _ENTRY_BASE
            for target in (mine, twin):
                if tag not in target.sets[tag % target.nsets]:
                    target.fill(tag, value)
    return ours, theirs, vocab


@given(span=structure_spans())
@settings(max_examples=120, deadline=None)
def test_span_sets_equal_per_core_passes(span):
    geometry, which, lengths, seed = span
    rng = np.random.default_rng(seed)
    config = getattr(_geometry(geometry).tlb, which)
    cores = len(lengths)
    merged, separate, vocab = _twin_structures(config, which, cores, rng)
    slots, cuts = _segments(lengths)
    tags = rng.integers(0, vocab, slots.size).astype(np.uint64)
    local = (tags % np.uint64(config.sets)).astype(np.intp)
    # the L2 stores per-fill values; the L1s one value
    l2 = which == "l2"
    fills = (np.where(rng.integers(0, 2, slots.size).astype(bool),
                      _ENTRY_HUGE, _ENTRY_BASE) if l2 else _ENTRY_BASE)

    span_epoch = _classify_sets(merged, slots, local, tags)
    nsets = config.sets
    for k, (lo, hi) in enumerate(cuts):
        own = _classify_sets([separate[k]], np.zeros(hi - lo, np.intp),
                             local[lo:hi], tags[lo:hi])
        np.testing.assert_array_equal(span_epoch.hits[lo:hi], own.hits)
        assert span_epoch.final[k * nsets:(k + 1) * nsets] == own.final
        assert span_epoch.evictions[k] == own.evictions[0]
        assert span_epoch.bounds[k:k + 2] == [lo, hi]
        _rebuild_sets([separate[k]], own, fills[lo:hi] if l2 else fills)
    _rebuild_sets(merged, span_epoch, fills)
    for mine, twin in zip(merged, separate):
        assert [list(entries.items()) for entries in mine.sets] == \
            [list(entries.items()) for entries in twin.sets]
        assert mine.stats == twin.stats


# ----------------------------------------------------------------------
# 2. the walk plan and the PWC levels


@st.composite
def walk_spans(draw):
    pwc_entries = draw(st.sampled_from((0, 4, 32)))
    lengths = draw(st.lists(_LENGTHS, min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**31 - 1))
    return pwc_entries, lengths, seed


def _walk_vpns(rng, n):
    """VPNs whose upper-level tags repeat, as the walker's do."""
    parts = (rng.integers(0, 4, n), rng.integers(0, 24, n),
             rng.integers(0, 24, n), rng.integers(0, 512, n))
    vpns = (parts[0] << 27) | (parts[1] << 18) | (parts[2] << 9) | parts[3]
    return vpns.astype(np.uint64)


def _twin_walkers(config, cores, rng):
    """Two identical lists of walkers: random PWC contents and memos."""
    ours = [PageTableWalker(config) for _ in range(cores)]
    theirs = [PageTableWalker(config) for _ in range(cores)]
    for mine, twin in zip(ours, theirs):
        for level, shift in enumerate(
                residue._PWC_VPN_SHIFTS[:len(mine._pwcs)]):
            tags = (_walk_vpns(rng, int(rng.integers(0, 40)))
                    >> np.uint64(shift)).tolist()
            memo = int(rng.choice([-1, *tags])) if tags else -1
            for walker in (mine, twin):
                pwc = walker._pwcs[level]
                for tag in tags:
                    pwc.fill(tag, PageSize.BASE)
                walker._last_tags[level] = memo
    return ours, theirs


def _walker_state(walker):
    return (asdict(walker.stats), list(walker._last_tags),
            [[list(entries.items()) for entries in pwc.sets]
             for pwc in walker._pwcs],
            [asdict(pwc.stats) for pwc in walker._pwcs])


@given(span=walk_spans())
@settings(max_examples=120, deadline=None)
def test_span_walk_plan_equals_per_walker_plans(span):
    pwc_entries, lengths, seed = span
    rng = np.random.default_rng(seed)
    config = WalkerConfig(pwc_enabled=pwc_entries > 0,
                          pwc_entries=pwc_entries or 32)
    cores = len(lengths)
    merged, separate = _twin_walkers(config, cores, rng)
    slots, cuts = _segments(lengths)
    vpns = _walk_vpns(rng, slots.size)
    sizes = rng.choice([0, 0, 0, 1, 2], slots.size).astype(np.int8)

    plans = residue.plan_walks(merged, vpns, sizes, slots)
    assert len(plans) == cores
    for k, (lo, hi) in enumerate(cuts):
        (own,) = residue.plan_walks([separate[k]], vpns[lo:hi], sizes[lo:hi],
                                    np.zeros(hi - lo, np.intp))
        plan = plans[k]
        np.testing.assert_array_equal(plan.cycles, own.cycles)
        assert (plan.refs, plan.pwc_hits, plan.pwc_misses) == \
            (own.refs, own.pwc_hits, own.pwc_misses)
        assert plan.levels == own.levels
        candidates = int(rng.integers(0, hi - lo + 1))
        residue.apply_walk_plan(merged[k], plan, candidates, candidates)
        residue.apply_walk_plan(separate[k], own, candidates, candidates)
        assert _walker_state(merged[k]) == _walker_state(separate[k])


@st.composite
def alias_spans(draw):
    cores = draw(st.integers(1, 8))
    vocab = draw(st.sampled_from((64, 4096, 1 << 20)))
    serves_huge = draw(st.booleans())
    seed = draw(st.integers(0, 2**31 - 1))
    return cores, vocab, serves_huge, seed


@given(span=alias_spans())
@settings(max_examples=150, deadline=None)
def test_span_alias_check_equals_per_core_checks(span):
    """Tags keyed by core: one check of the span flags a conflict
    exactly when some core's own check does."""
    cores, vocab, serves_huge, seed = span
    rng = np.random.default_rng(seed)
    per_core = [
        [rng.integers(0, vocab, int(rng.integers(0, 12))).astype(np.uint64)
         for _ in range(4)]
        for _ in range(cores)
    ]
    alone = [residue.l2_alias_conflict(*arrays, serves_huge)
             for arrays in per_core]
    joined = [np.concatenate([arrays[i] for arrays in per_core])
              for i in range(4)]
    keys = [np.repeat(np.arange(cores), [arrays[i].size
                                         for arrays in per_core])
            for i in range(4)]
    assert residue.l2_alias_conflict(
        *joined, serves_huge, cores=tuple(keys)) == any(alone)


# ----------------------------------------------------------------------
# 3. the whole span through run_epoch


BASE = 0x5555_5540_0000
#: pages in each process's one VMA: four 2MB regions
WINDOW = 2048


def _bound_machine(config, traces, policy):
    """A machine with one single-thread process per core, bound and
    ready to run spans by hand."""
    layout = AddressSpaceLayout.from_vmas({"data": (BASE, WINDOW << 12)})
    workloads = [ProcessWorkload.single_thread(trace, layout, trace.name)
                 for trace in traces]
    machine = Machine(config, policy=policy)
    machine._assign_ids(workloads)
    machine.cores = [Core(config, core_id=i) for i in range(config.cores)]
    machine.pipelines = [TranslationPipeline(core) for core in machine.cores]
    scheduler = machine._bind_threads(workloads)
    return machine, scheduler


def _machine_state(machine):
    cores = []
    for core, pipeline in zip(machine.cores, machine.pipelines):
        tlb = core.tlb
        structures = (tlb.l1_base, tlb.l1_huge, tlb.l1_giga, tlb.l2)
        pcc = core.pcc
        cores.append((
            [[list(entries.items()) for entries in s.sets]
             for s in structures],
            [asdict(s.stats) for s in structures], tlb.accesses,
            asdict(core.stats), _walker_state(core.walker),
            [asdict(entry) for entry in pcc._entries.values()],
            asdict(pcc.stats),
            {name: value for name, value in pipeline.as_metrics("p").items()
             if name != "p.columnar_mt_epochs"},
            (pipeline._pending_base_records, pipeline._pending_huge_records,
             pipeline._pending_accesses),
        ))
    tables = []
    for pid in sorted(machine.kernel.processes):
        table = machine.kernel.processes[pid].page_table
        tables.append((
            sorted(table._pte_accessed), sorted(table._pud_accessed),
            sorted((tag, state.accessed, state.promoted)
                   for tag, state in table._huge.items()),
            sorted(table._accessed_count.items()),
        ))
    return cores, tables


@st.composite
def machine_spans(draw):
    geometry = draw(st.sampled_from(("tiny", "scaled")))
    policy = draw(st.sampled_from((HugePagePolicy.NONE, HugePagePolicy.PCC)))
    cores = draw(st.integers(1, 8))
    warmups = draw(st.lists(st.sampled_from((0, 1, 40, 300)),
                            min_size=cores, max_size=cores))
    windows = draw(st.lists(st.one_of(st.just(1), st.integers(1, 400)),
                            min_size=cores, max_size=cores))
    seed = draw(st.integers(0, 2**31 - 1))
    return geometry, policy, warmups, windows, seed


@given(span=machine_spans())
@settings(max_examples=30, deadline=None)
def test_run_epoch_span_equals_per_slot_spans(span):
    geometry, policy, warmups, windows, seed = span
    cores = len(warmups)
    config = _geometry(geometry, cores)
    config = config.with_(os=replace(config.os, promote_every_accesses=10**9))
    rng = np.random.default_rng(seed)
    traces = []
    for k in range(cores):
        # a hot set plus a scan, so each core warms its TLBs and PWCs
        pages = np.where(rng.random(1200) < 0.6, rng.integers(0, 96, 1200),
                         rng.integers(0, WINDOW, 1200))
        traces.append(Trace(f"t{k}", np.uint64(BASE)
                            + pages.astype(np.uint64) * np.uint64(4096),
                            footprint_bytes=WINDOW << 12))
    runs = [_bound_machine(config, traces, policy) for _ in range(2)]
    memos = rng.integers(-1, 2, size=(cores, 3))
    for machine, scheduler in runs:
        for slot, warm in zip(scheduler.slots, warmups):
            # random start contents: a warm-up quantum on the fast tier
            table = machine.kernel.processes[slot.pid].page_table
            if warm:
                slot.cursor = machine.pipelines[slot.core_id].run_quantum(
                    slot, warm, table)[0]
        for core, memo in zip(machine.cores, memos.tolist()):
            # random PWC memos: cleared, or the level's own last tag
            walker = core.walker
            walker._last_tags = [tag if keep >= 0 else -1 for tag, keep
                                 in zip(walker._last_tags, memo)]

    def span_args(machine, scheduler, ks):
        slots = [scheduler.slots[k] for k in ks]
        ends = [[min(slot.cursor + windows[k], slot.length)]
                for k, slot in zip(ks, slots)]
        tables = {slot.pid: machine.kernel.processes[slot.pid].page_table
                  for slot in slots}
        pipelines = [machine.pipelines[slot.core_id] for slot in slots]
        return pipelines, slots, ends, tables, lambda slot: None

    (together, sched_a), (apart, sched_b) = runs
    merged = TranslationPipeline.run_epoch(
        *span_args(together, sched_a, range(cores)))
    one_by_one = [TranslationPipeline.run_epoch(
        *span_args(apart, sched_b, [k])) for k in range(cores)]
    assert merged is not None
    assert merged == [result[0] for result in one_by_one]
    assert _machine_state(together) == _machine_state(apart)
    if cores > 1:
        assert all(p.columnar_mt_epochs == 1 for p in together.pipelines)


def test_declined_span_counts_on_the_first_declining_slot():
    """A span declines as a whole; the fallback counts once, on the
    first slot (scheduler order) whose window declines on its own."""
    config = tiny_config(cores=3)
    pages = np.arange(0, 200)
    traces = [Trace(f"t{k}", np.uint64(BASE) + pages.astype(np.uint64)
                    * np.uint64(4096), footprint_bytes=WINDOW << 12)
              for k in range(3)]
    machine, scheduler = _bound_machine(config, traces, HugePagePolicy.NONE)
    vpn = BASE >> 12
    # A bogus 2MB-tag entry in core 1's and core 2's L2: a 4K record's
    # silent region-tag probe would hit it, which the classifier cannot
    # license, so slots 1 and 2 each decline on their own.
    for core in machine.cores[1:]:
        l2 = core.tlb.l2
        l2.fill(vpn >> 9, _ENTRY_HUGE)
    slots = scheduler.slots
    ends = [[100]] * 3
    tables = {slot.pid: machine.kernel.processes[slot.pid].page_table
              for slot in slots}
    assert TranslationPipeline.run_epoch(
        machine.pipelines, slots, ends, tables, lambda slot: None) is None
    assert [p.columnar_fallbacks for p in machine.pipelines] == [0, 1, 0]
    assert [p.columnar_epochs for p in machine.pipelines] == [0, 0, 0]
