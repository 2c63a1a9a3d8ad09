"""Vectorized retirement of the columnar epoch's L1-miss residue.

PR 6's columnar tier classified the two L1 structures' whole-epoch
touch streams in one pass but replayed every classified miss through
the live L2 / 1GB-L1 / walker / page-table objects in program order.
This module retires that residue as array passes too:

* :func:`l2_alias_conflict` — the conservative pre-check that licenses
  treating the unified L2 as one more classifiable LRU stream. The
  scalar lookup silently probes the L2 with tags the columnar pass
  does not model (a 4K VPN for a huge-backed region, a 2MB tag for a
  4K-backed one); those probes are guaranteed misses — and therefore
  LRU-inert — exactly when none of them can collide with a tag that is
  resident or will be filled this epoch. A conflict (never observed
  outside adversarial traces; the shootdown invariants rule it out for
  well-formed runs) falls the epoch back to the quantum tiers instead
  of raising, which keeps the engine total rather than trap-happy.
* :func:`pwc_level_outcomes` — exact classification of one page-walk
  cache level's epoch probe stream (memo hit / LRU hit / miss) without
  touching the structure, plus its reconstructed end state.
* :func:`page_table_pass` — the epoch's accessed-bit reads and writes
  as one pass: ``pud_was``/``pmd_was`` per walk fall out of "bit set
  before the epoch, or an earlier walk in the epoch covered the same
  prefix" (first-occurrence logic), after which the set/dict mutations
  are order-insensitive and apply grouped.
* :func:`plan_walks` / :func:`apply_walk_plan` — per-walk cycle and
  memory-reference totals from the PWC outcomes (the walker's inlined
  cost model, vectorized), applied to the walker's stats bags and PWC
  set dicts at epoch end.

Each pass covers a whole span at once: every core's structure takes
part, its sets side by side under span-wide set ids
(:func:`span_set_ids`), its walks and tags tagged with their slot.
Everything here is pure with respect to program order: callers capture
pre-state, compute, then apply — the exactness arguments mirror the
phase-by-phase ones in :mod:`repro.engine.machine`'s docstring.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.engine.columnar import classify_lru_hits, epoch_evictions
from repro.vm.address import PageSize
from repro.vm.pagetable import _HugeRegionState

#: Walk-size codes used by the residue pipeline (int8 arrays).
SIZE_BASE = 0
SIZE_HUGE = 1
SIZE_GIGA = 2

#: VPN shift to the 2MB / 1GB region tags.
_HUGE_SHIFT = 9
_GIGA_SHIFT = 18

#: VPN shifts to the PWC tags per level (the walker shifts the vaddr by
#: 39/30/21; a VPN is the vaddr without its 12 offset bits).
_PWC_VPN_SHIFTS = (27, 18, 9)

#: Entry value every PWC fill stores (``pwc.fill(tag, PageSize.BASE)``).
_PWC_ENTRY = int(PageSize.BASE)

#: Low bits that key an L2 tag by its core in the alias pre-check.
_CORE_KEY_BITS = 8


# ----------------------------------------------------------------------
# span-wide set ids


def span_set_ids(structures, slots, local_sets):
    """Span-wide set ids of one per-core structure's touches.

    ``structures`` holds the structure (a TLB or PWC) of each slot's
    core, in slot order; ``slots`` / ``local_sets`` give each touch's
    slot and its set within that core's structure. Slot k's set s is
    span set ``k * nsets + s``: the cores' sets lie side by side, so
    one classifier call covers every core while each (core, set)
    stream stays private.
    """
    return slots * structures[0].nsets + local_sets


# ----------------------------------------------------------------------
# L2 aliasing pre-check


def _on_core(tags, core):
    """``tags`` as one core's L2 sees them: keyed by ``core`` in the low
    bits, so equal tags on two cores never compare equal. A key can only
    collide across cores past 256 cores, and then only spuriously, which
    declines the span (conservative)."""
    return (tags << np.uint64(_CORE_KEY_BITS)) | core


def l2_alias_conflict(resident, base_vpns, huge_vpns, other_vpns,
                      serves_huge: bool, cores=(0, 0, 0, 0)) -> bool:
    """Whether any silent L2 probe could collide with a live tag.

    ``resident`` holds every tag currently in the L2; ``base_vpns`` /
    ``huge_vpns`` / ``other_vpns`` are the epoch residue's VPNs split
    by region state. The modelled stream touches ``base_vpns`` and
    (when ``serves_huge``) ``huge_vpns >> 9``; every tag a silent
    probe could carry must stay outside the union of residents and
    modelled tags for the whole epoch, so the check compares against
    that union (conservative: fills only grow it).

    ``cores`` gives the four arrays' core (a span's slot index), per
    element or one for the whole array. A probe only meets its own
    core's L2, so tags compare keyed by core and one call checks every
    core of a span.
    """
    r_core, b_core, h_core, o_core = (
        np.asarray(core, dtype=np.uint64) for core in cores
    )
    shift = np.uint64(_HUGE_SHIFT)
    parts = [_on_core(np.asarray(resident, dtype=np.uint64), r_core),
             _on_core(np.asarray(base_vpns, dtype=np.uint64), b_core)]
    if serves_huge and huge_vpns.size:
        parts.append(_on_core(huge_vpns >> shift, h_core))
    live = np.concatenate(parts)
    if not live.size:
        return False
    # Every tag a silent probe carries: a 4K record's 2MB tag (only
    # when the L2 serves 2MB entries), a huge-backed record's VPN, and
    # a 1GB-backed record's VPN and 2MB tag.
    probes = [_on_core(huge_vpns, h_core), _on_core(other_vpns, o_core)]
    if serves_huge:
        probes += [_on_core(base_vpns >> shift, b_core),
                   _on_core(other_vpns >> shift, o_core)]
    probes = np.concatenate(probes)
    if not probes.size:
        return False
    live.sort()
    at = np.searchsorted(live, probes)
    np.minimum(at, live.size - 1, out=at)
    return bool((live[at] == probes).any())


# ----------------------------------------------------------------------
# PWC level classification


def stack_arrays(initial):
    """Flatten per-set LRU stacks into (set, tag) arrays, LRU→MRU.

    ``initial[s]`` iterates set ``s``'s resident tags LRU→MRU (a list,
    or a live set dict in insertion order). The epoch classifier takes
    these as synthetic older touches that reproduce the structure's
    recency state at epoch start.
    """
    sizes = np.fromiter(map(len, initial), np.intp, len(initial))
    tags = np.fromiter(chain.from_iterable(initial), np.uint64,
                       int(sizes.sum()))
    return np.repeat(np.arange(len(initial)), sizes), tags


def pwc_level_outcomes(pwcs, last_tags, tags, slots):
    """Classify one PWC level's span walk stream without touching it.

    ``pwcs`` / ``last_tags`` are the level's PWC and walker memo on
    each slot's core, in slot order; ``tags`` is the level's tag per
    participating walk in span order (slot by slot, walk order within
    a slot) and ``slots`` each walk's slot. Returns ``(outcomes,
    contents, evictions, final_last)``: per-walk int8 codes (0 memo
    hit, 1 LRU hit, 2 miss), the reconstructed end-of-epoch contents of
    every slot's sets (slot k's set s at ``k * nsets + s``), the fill
    evictions per slot, and each slot's memo end value. The memo
    absorbs consecutive repeats before the LRU ever sees them — exactly
    the walker's inline fast path — so the LRU stream is the memo-miss
    subset only; a slot's first walk compares against its own memo.
    """
    nslots = len(pwcs)
    sets = [entries for pwc in pwcs for entries in pwc.sets]
    final_last = list(last_tags)
    n = int(tags.size)
    outcomes = np.zeros(n, dtype=np.int8)
    probe_pos = np.zeros(0, dtype=np.intp)
    if n:
        heads = np.empty(n, dtype=bool)
        heads[0] = True
        np.not_equal(slots[1:], slots[:-1], out=heads[1:])
        head_pos = np.flatnonzero(heads)
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = tags[:-1]
        prev[head_pos] = np.asarray(last_tags, dtype=np.int64)[
            slots[head_pos]]
        probe_pos = np.flatnonzero(tags != prev)
        tail_pos = np.append(head_pos[1:] - 1, n - 1)
        for slot, tag in zip(slots[tail_pos].tolist(),
                             tags[tail_pos].tolist()):
            final_last[slot] = tag
    if not probe_pos.size:
        # No walk, or every walk re-hit its memo: nothing was probed.
        return (outcomes, [list(entries) for entries in sets],
                np.zeros(nslots, dtype=np.int64), final_last)
    probe_tags = tags[probe_pos].astype(np.uint64)
    nsets = pwcs[0].nsets
    ways = pwcs[0].config.ways
    probe_sets = span_set_ids(
        pwcs, slots[probe_pos],
        (probe_tags % np.uint64(nsets)).astype(np.intp),
    )
    init_sets, init_tags = stack_arrays(sets)
    hits, contents = classify_lru_hits(
        probe_sets, probe_tags, ways, init_sets, init_tags, nsets=len(sets)
    )
    outcomes[probe_pos[hits]] = 1
    outcomes[probe_pos[~hits]] = 2
    occupancy0 = np.bincount(init_sets, minlength=len(sets))
    evictions = epoch_evictions(probe_sets[~hits], len(sets), ways,
                                occupancy0, nslots)
    return outcomes, contents, evictions, final_last


# ----------------------------------------------------------------------
# page-table accessed bits


def page_table_pass(page_table, vpns, sizes):
    """One epoch's page-table walks as a compute-then-apply array pass.

    ``vpns`` (uint64) and ``sizes`` (int8 ``SIZE_*`` codes) describe
    the epoch's live walks in program order. Returns per-walk
    ``(pud_was, pmd_was)`` — the accessed-bit reads the scalar
    :meth:`PageTable.walk` would have reported — and applies the same
    mutations: a walk sees a set bit iff it was set before the epoch or
    an earlier epoch walk covered the same prefix (1GB prefixes by any
    walk, 2MB prefixes by non-1GB walks only, matching the scalar
    walk's early return for gigapage leaves); afterwards every touched
    prefix's bit is simply set, so the writes group by unique prefix.
    PTE accessed bits advance the per-region accessed counts exactly
    once per newly-touched base page.
    """
    n = int(vpns.size)
    pud_was = np.zeros(n, dtype=bool)
    pmd_was = np.zeros(n, dtype=bool)
    if not n:
        return pud_was, pmd_was
    pud_set = page_table._pud_accessed
    gigas = (vpns >> np.uint64(_GIGA_SHIFT)).astype(np.int64)
    uq_gigas, first_g, inv_g = np.unique(
        gigas, return_index=True, return_inverse=True
    )
    pre_g = np.fromiter(
        (giga in pud_set for giga in uq_gigas.tolist()),
        dtype=bool, count=uq_gigas.size,
    )
    first_mask = np.zeros(n, dtype=bool)
    first_mask[first_g] = True
    pud_was[:] = pre_g[inv_g] | ~first_mask

    huge = page_table._huge
    non_giga = np.flatnonzero(sizes != SIZE_GIGA)
    uq_prefixes = None
    if non_giga.size:
        prefixes = (vpns[non_giga] >> np.uint64(_HUGE_SHIFT)).astype(np.int64)
        uq_prefixes, first_p, inv_p = np.unique(
            prefixes, return_index=True, return_inverse=True
        )
        pre_p = np.empty(uq_prefixes.size, dtype=bool)
        for k, prefix in enumerate(uq_prefixes.tolist()):
            state = huge.get(prefix)
            pre_p[k] = state is not None and state.accessed
        fm = np.zeros(non_giga.size, dtype=bool)
        fm[first_p] = True
        pmd_was[non_giga] = pre_p[inv_p] | ~fm

    # apply — order-insensitive now that pre-state is captured
    pud_set.update(uq_gigas.tolist())
    if uq_prefixes is not None:
        for prefix in uq_prefixes.tolist():
            state = huge.get(prefix)
            if state is None:
                state = huge[prefix] = _HugeRegionState()
            state.accessed = True
    base = np.flatnonzero(sizes == SIZE_BASE)
    if base.size:
        pte_accessed = page_table._pte_accessed
        accessed_count = page_table._accessed_count
        for page in np.unique(vpns[base]).tolist():
            if page not in pte_accessed:
                pte_accessed.add(page)
                prefix = page >> _HUGE_SHIFT
                accessed_count[prefix] = accessed_count.get(prefix, 0) + 1
    return pud_was, pmd_was


# ----------------------------------------------------------------------
# walk cost planning


class WalkPlan:
    """Per-walk cycle costs plus deferred walker/PWC state updates."""

    __slots__ = ("cycles", "refs", "pwc_hits", "pwc_misses", "levels")

    def __init__(self, cycles, refs, pwc_hits, pwc_misses, levels):
        self.cycles = cycles
        self.refs = refs
        self.pwc_hits = pwc_hits
        self.pwc_misses = pwc_misses
        #: per touched level: (index, contents, evictions, final memo,
        #: lookup hits, misses)
        self.levels = levels


def plan_walks(walkers, vpns, sizes, slots) -> list:
    """Vectorize the walkers' inlined cost model over a span's walks.

    ``walkers`` are the span's walkers in slot order; ``vpns`` /
    ``sizes`` the walks slot by slot (walk order within a slot) and
    ``slots`` each walk's slot. A walk of size code ``s`` references
    ``4 - s`` radix levels; each of its upper levels L (those with
    ``s <= 2 - L``) is served by PWC level L of its own core — a memo
    or LRU hit replaces the level's memory reference with a fast
    lookup, a miss pays the reference and fills the PWC. The leaf
    level always references memory. Every slot's PWCs at one level are
    classified in one pass (:func:`pwc_level_outcomes`). Reads PWC
    state without touching it; returns one :class:`WalkPlan` per
    walker, which :func:`apply_walk_plan` commits.
    """
    nslots = len(walkers)
    bounds = np.searchsorted(slots, np.arange(nslots + 1)).tolist()
    segments = list(zip(bounds, bounds[1:]))
    sizes64 = sizes.astype(np.int64)
    memory_ref = walkers[0]._memory_ref_cycles
    if not walkers[0]._pwcs:
        cycles = (4 - sizes64) * memory_ref
        return [WalkPlan(cycles[lo:hi], 4 * (hi - lo)
                         - int(sizes64[lo:hi].sum()), 0, 0, [])
                for lo, hi in segments]
    pwc_hit = walkers[0]._pwc_hit_cycles
    cycles = np.full(int(vpns.size), memory_ref, dtype=np.int64)  # leaf
    pwc_hits = np.zeros(nslots, dtype=np.int64)
    pwc_misses = np.zeros(nslots, dtype=np.int64)
    levels = [[] for _ in walkers]
    for level, shift in enumerate(_PWC_VPN_SHIFTS):
        part = np.flatnonzero(sizes64 <= 2 - level)
        if not part.size:
            continue
        pwcs = [walker._pwcs[level] for walker in walkers]
        part_slots = slots[part]
        outcomes, contents, evictions, final_last = pwc_level_outcomes(
            pwcs, [walker._last_tags[level] for walker in walkers],
            (vpns[part] >> np.uint64(shift)).astype(np.int64), part_slots,
        )
        hit = outcomes < 2
        cycles[part[hit]] += pwc_hit
        cycles[part[~hit]] += memory_ref
        walks = np.bincount(part_slots, minlength=nslots)
        hits = np.bincount(part_slots[hit], minlength=nslots)
        lookup_hits = np.bincount(part_slots[outcomes == 1],
                                  minlength=nslots)
        pwc_hits += hits
        pwc_misses += walks - hits
        nsets = pwcs[0].nsets
        for k in np.flatnonzero(walks).tolist():
            levels[k].append((level, contents[k * nsets:(k + 1) * nsets],
                              int(evictions[k]), final_last[k],
                              int(lookup_hits[k]), int(walks[k] - hits[k])))
    return [WalkPlan(cycles[lo:hi], hi - lo + int(pwc_misses[k]),
                     int(pwc_hits[k]), int(pwc_misses[k]), levels[k])
            for k, (lo, hi) in enumerate(segments)]


def apply_walk_plan(walker, plan: WalkPlan, pud_candidates: int,
                    pmd_candidates: int) -> None:
    """Commit a :class:`WalkPlan`'s walker stats and PWC end states.

    ``pud_candidates`` / ``pmd_candidates`` are the admission counts
    from the page-table pass (the walker counts every candidate it
    reports, whether or not a PCC consumes it).
    """
    stats = walker.stats
    stats.walks += int(plan.cycles.size)
    stats.walk_cycles += int(plan.cycles.sum())
    stats.memory_refs += plan.refs
    stats.pwc_hits += plan.pwc_hits
    stats.pwc_misses += plan.pwc_misses
    stats.pcc_candidates_1gb += pud_candidates
    stats.pcc_candidates_2mb += pmd_candidates
    for level, contents, evictions, final_last, lookup_hits, misses \
            in plan.levels:
        pwc = walker._pwcs[level]
        pwc.stats.hits += lookup_hits
        pwc.stats.misses += misses
        pwc.stats.evictions += evictions
        sets = pwc.sets
        for s, content in enumerate(contents):
            entries = sets[s]
            entries.clear()
            for tag in content:
                entries[tag] = _PWC_ENTRY
        walker._last_tags[level] = final_last
