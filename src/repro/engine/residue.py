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

Everything here is pure with respect to program order: callers capture
pre-state, compute, then apply — the exactness arguments mirror the
phase-by-phase ones in :mod:`repro.engine.machine`'s docstring.
"""

from __future__ import annotations

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


# ----------------------------------------------------------------------
# L2 aliasing pre-check


def l2_alias_conflict(resident, base_vpns, huge_vpns, other_vpns,
                      serves_huge: bool) -> bool:
    """Whether any silent L2 probe could collide with a live tag.

    ``resident`` holds every tag currently in the L2; ``base_vpns`` /
    ``huge_vpns`` / ``other_vpns`` are the epoch residue's VPNs split
    by region state. The modelled stream touches ``base_vpns`` and
    (when ``serves_huge``) ``huge_vpns >> 9``; every tag a silent
    probe could carry must stay outside the union of residents and
    modelled tags for the whole epoch, so the check compares against
    that union (conservative: fills only grow it).
    """
    parts = [np.asarray(resident, dtype=np.uint64),
             np.asarray(base_vpns, dtype=np.uint64)]
    if serves_huge and huge_vpns.size:
        parts.append(huge_vpns >> np.uint64(_HUGE_SHIFT))
    live = np.concatenate(parts) if len(parts) > 1 else parts[0]
    if not live.size:
        return False
    if serves_huge and base_vpns.size and np.isin(
        base_vpns >> np.uint64(_HUGE_SHIFT), live
    ).any():
        return True  # huge-tag probe of a 4K-backed region's record
    if huge_vpns.size and np.isin(huge_vpns, live).any():
        return True  # 4K-VPN probe of a huge-backed region's record
    if other_vpns.size:
        if np.isin(other_vpns, live).any():
            return True  # 4K-VPN probe of a 1GB-backed region's record
        if serves_huge and np.isin(
            other_vpns >> np.uint64(_HUGE_SHIFT), live
        ).any():
            return True  # 2MB-tag probe of a 1GB-backed region's record
    return False


# ----------------------------------------------------------------------
# PWC level classification


def stack_arrays(initial):
    """Flatten per-set LRU stacks into (set, tag) arrays, LRU→MRU.

    ``initial[s]`` iterates set ``s``'s resident tags LRU→MRU (a list,
    or a live set dict in insertion order). The epoch classifier takes
    these as synthetic older touches that reproduce the structure's
    recency state at epoch start.
    """
    sets_out: list[int] = []
    tags_out: list[int] = []
    for set_index, content in enumerate(initial):
        if content:
            sets_out.extend([set_index] * len(content))
            tags_out.extend(content)
    return (
        np.asarray(sets_out, dtype=np.intp),
        np.asarray(tags_out, dtype=np.uint64),
    )


def pwc_level_outcomes(tags, last_tag: int, initial: list[list[int]],
                       nsets: int, ways: int):
    """Classify one PWC level's epoch walk stream without touching it.

    ``tags`` is the level's tag per participating walk, in walk order;
    ``last_tag`` the walker's memo for the level; ``initial`` the PWC's
    per-set contents LRU→MRU. Returns ``(outcomes, contents, evictions,
    final_last)``: per-walk int8 codes (0 memo hit, 1 LRU hit, 2 miss),
    the reconstructed end-of-epoch per-set contents, the fill-eviction
    count, and the memo's end value. The memo absorbs consecutive
    repeats before the LRU ever sees them — exactly the walker's inline
    fast path — so the LRU stream is the memo-miss subset only.
    """
    n = int(tags.size)
    if n == 0:
        return (np.zeros(0, dtype=np.int8),
                [list(stack) for stack in initial], 0, last_tag)
    memo = np.empty(n, dtype=bool)
    memo[0] = int(tags[0]) == last_tag
    np.equal(tags[1:], tags[:-1], out=memo[1:])
    outcomes = np.zeros(n, dtype=np.int8)
    probe_pos = np.flatnonzero(~memo)
    if not probe_pos.size:
        # Every walk re-hit the memo: the structure was never probed.
        return outcomes, [list(stack) for stack in initial], 0, int(tags[-1])
    probe_tags = tags[probe_pos].astype(np.uint64)
    probe_sets = (probe_tags % np.uint64(nsets)).astype(np.intp)
    init_sets, init_tags = stack_arrays(initial)
    hits, contents = classify_lru_hits(
        probe_sets, probe_tags, ways, init_sets, init_tags, nsets=nsets
    )
    outcomes[probe_pos[hits]] = 1
    outcomes[probe_pos[~hits]] = 2
    occupancy0 = np.fromiter(
        (len(stack) for stack in initial), np.int64, nsets
    )
    evictions = epoch_evictions(probe_sets[~hits], nsets, ways, occupancy0)
    return outcomes, contents, int(evictions), int(tags[-1])


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


def plan_walks(walker, vpns, sizes) -> WalkPlan:
    """Vectorize the walker's inlined cost model over an epoch's walks.

    A walk of size code ``s`` references ``4 - s`` radix levels; each
    of its upper levels L (those with ``s <= 2 - L``) is served by PWC
    level L — a memo or LRU hit replaces the level's memory reference
    with a fast lookup, a miss pays the reference and fills the PWC.
    The leaf level always references memory. Reads PWC state without
    touching it; :func:`apply_walk_plan` commits the side effects.
    """
    n = int(vpns.size)
    sizes64 = sizes.astype(np.int64)
    memory_ref = walker._memory_ref_cycles
    if not walker._pwcs:
        cycles = (4 - sizes64) * memory_ref
        return WalkPlan(cycles, 4 * n - int(sizes64.sum()), 0, 0, [])
    pwc_hit = walker._pwc_hit_cycles
    cycles = np.full(n, memory_ref, dtype=np.int64)  # the leaf reference
    refs = n
    pwc_hits = 0
    pwc_misses = 0
    levels = []
    for level, shift in enumerate(_PWC_VPN_SHIFTS):
        part = np.flatnonzero(sizes64 <= 2 - level)
        if not part.size:
            continue
        pwc = walker._pwcs[level]
        tags = (vpns[part] >> np.uint64(shift)).astype(np.int64)
        initial = [list(entries) for entries in pwc.sets]
        outcomes, contents, evictions, final_last = pwc_level_outcomes(
            tags, walker._last_tags[level], initial, pwc.nsets,
            pwc.config.ways,
        )
        hit = outcomes < 2
        cycles[part[hit]] += pwc_hit
        missed = part[~hit]
        cycles[missed] += memory_ref
        refs += int(missed.size)
        lookup_hits = int(np.count_nonzero(outcomes == 1))
        pwc_hits += int(np.count_nonzero(hit))
        pwc_misses += int(missed.size)
        levels.append((level, contents, evictions, final_last,
                       lookup_hits, int(missed.size)))
    return WalkPlan(cycles, refs, pwc_hits, pwc_misses, levels)


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
