"""Columnar whole-stream trace encoding and exact set-LRU classification.

This module is the data layer of the columnar mega-batch engine tier
(``columnar=True`` on :class:`~repro.engine.machine.Machine`). It holds
two things:

* :class:`ColumnarStream` — a workload thread's compressed trace
  pre-encoded **once** into the column arrays every epoch pass gathers
  from: the uint64 page stream, run lengths and their prefix sums, the
  2MB region tag per record, and dense indices into the unique-page and
  unique-region vocabularies. The encoding is a property of the trace
  alone, so it is cached content-addressed alongside the trace in
  :mod:`repro.trace.cache` (keyed by a digest of the raw record bytes)
  and memory-mapped back on later runs.

* Exact **whole-epoch LRU classification**: given one TLB structure's
  touch stream for an epoch (program order) plus the structure's
  resident entries at epoch start, compute per record whether it hits,
  without simulating the structure record-by-record. This is what lets
  the engine retire an entire OS-tick interval of L1 probes as array
  ops and only walk the classified misses through the live object
  graph.

Why classification without simulation is exact
----------------------------------------------

A W-way true-LRU set's content after any touch sequence is exactly the
W most-recently-touched **distinct** tags of that set — evictions drop
the least recent, hits refresh recency, and nothing else changes
membership. So a touch of tag ``t`` hits iff fewer than W distinct
other tags were touched in ``t``'s set since ``t``'s previous touch
(counting the epoch-start residents as older touches in LRU order).
That predicate only looks **backwards** through the touch stream, and
the touch stream itself is outcome-independent: every probe of the
structure leaves its tag at the MRU position whether it hit or filled.
Classification therefore never needs the intermediate hit/miss
outcomes it is computing.

The vectorized form walks a *previous-run* pointer chain. Records are
grouped by set (one stable radix argsort); maximal runs of the same
tag within a set collapse — a run continuation always hits — and each
run start chases backwards run-by-run, collecting distinct tags, until
it either finds its own tag (hit), has seen W distinct others (miss),
or exhausts the chain (miss). The chase runs ``depth`` steps for every
query lane in parallel; the rare queries still unresolved (ping-pong
patterns) fall back to an exact per-query Python walk of the same
chain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.vm.address import BASE_PAGE_SHIFT, HUGE_PAGE_SHIFT

#: VPN -> 2MB region tag shift.
_HUGE_SHIFT = HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT

#: Cache entry family name for encoded streams (one namespace beside
#: the trace generators').
STREAM_CACHE_NAME = "columnar-stream"

#: Tag sentinel for empty chase slots; no modelled address space
#: produces tags this large (VPNs are ``vaddr >> 12`` of sub-2^63
#: addresses).
_EMPTY_SLOT = np.uint64(0xFFFFFFFFFFFFFFFF)


# ----------------------------------------------------------------------
# whole-stream encoding


@dataclass
class ColumnarStream:
    """One thread's address stream in columnar form.

    All arrays are aligned per trace record (one record = one maximal
    run of consecutive accesses to the same 4KB page):

    - ``vpns``: the 4KB page of each record (uint64);
    - ``counts``: the run length of each record;
    - ``cum``: prefix sums, ``cum[r]`` = accesses before record ``r``
      (length ``n + 1``) — quantum and epoch windows fall out of
      ``searchsorted`` over this array;
    - ``htags``: the 2MB region tag (``vpn >> 9``) of each record;
    - ``page_ridx`` / ``page_tags``: dense index into the sorted
      unique-page vocabulary (the fault pre-pass keys its seen-page
      bitmap by this);
    - ``region_ridx`` / ``region_tags``: dense index into the sorted
      unique-2MB-region vocabulary (the per-epoch mapping-state gather
      keys by this).

    ``slot`` records which scheduler slot the stream was bound to; -1
    until a machine binds it.
    """

    vpns: np.ndarray
    counts: np.ndarray
    cum: np.ndarray
    htags: np.ndarray
    page_ridx: np.ndarray
    page_tags: np.ndarray
    region_ridx: np.ndarray
    region_tags: np.ndarray
    slot: int = -1

    def __len__(self) -> int:
        return int(self.vpns.size)

    @property
    def total_accesses(self) -> int:
        """Raw accesses the stream encodes (sum of run lengths)."""
        return int(self.cum[-1])

    @classmethod
    def encode(cls, vpns: np.ndarray, counts: np.ndarray,
               slot: int = -1) -> "ColumnarStream":
        """Encode a compressed record stream into column arrays."""
        from repro.resilience.faults import fault_point

        fault_point("engine.columnar.encode", detail=f"slot={slot}")
        vpns = np.ascontiguousarray(vpns, dtype=np.uint64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if vpns.shape != counts.shape:
            raise ValueError(
                f"vpns/counts shape mismatch: {vpns.shape} vs {counts.shape}"
            )
        n = vpns.size
        cum = np.empty(n + 1, dtype=np.int64)
        cum[0] = 0
        np.cumsum(counts, out=cum[1:])
        htags = vpns >> np.uint64(_HUGE_SHIFT)
        page_tags, page_ridx = np.unique(vpns, return_inverse=True)
        region_tags, region_ridx = np.unique(htags, return_inverse=True)
        return cls(
            vpns=vpns,
            counts=counts,
            cum=cum,
            htags=htags,
            page_ridx=np.ascontiguousarray(page_ridx, dtype=np.intp),
            page_tags=page_tags,
            region_ridx=np.ascontiguousarray(region_ridx, dtype=np.intp),
            region_tags=region_tags,
            slot=slot,
        )

    @classmethod
    def from_trace(cls, trace, cache=None, slot: int = -1) -> "ColumnarStream":
        """Encode a :class:`~repro.trace.events.CompressedTrace`.

        With a :class:`~repro.trace.cache.TraceCache`, the derived
        arrays are stored content-addressed (a digest of the raw
        ``vpns``/``counts`` bytes keys the entry, so any two identical
        streams share one entry regardless of workload name) and
        memory-mapped back on subsequent runs.
        """
        if cache is None:
            return cls.encode(trace.vpns, trace.counts, slot=slot)
        vpns = np.ascontiguousarray(trace.vpns, dtype=np.uint64)
        counts = np.ascontiguousarray(trace.counts, dtype=np.int64)
        params = stream_content_params(vpns, counts)

        def builder():
            stream = cls.encode(vpns, counts)
            arrays = {
                "htags": stream.htags,
                "page_ridx": np.asarray(stream.page_ridx, dtype=np.int64),
                "page_tags": stream.page_tags,
                "region_ridx": np.asarray(stream.region_ridx, dtype=np.int64),
                "region_tags": stream.region_tags,
            }
            meta = {
                "records": len(stream),
                "accesses": stream.total_accesses,
                "pages": int(stream.page_tags.size),
                "regions": int(stream.region_tags.size),
            }
            return arrays, meta

        entry = cache.get_or_build_entry(STREAM_CACHE_NAME, params, builder)
        arrays = entry.arrays
        n = vpns.size
        cum = np.empty(n + 1, dtype=np.int64)
        cum[0] = 0
        np.cumsum(counts, out=cum[1:])
        return cls(
            vpns=vpns,
            counts=counts,
            cum=cum,
            htags=arrays["htags"],
            page_ridx=arrays["page_ridx"].astype(np.intp, copy=False),
            page_tags=arrays["page_tags"],
            region_ridx=arrays["region_ridx"].astype(np.intp, copy=False),
            region_tags=arrays["region_tags"],
            slot=slot,
        )

    # ------------------------------------------------------------------
    # round-trip

    def decode(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact ``(vpns, counts)`` record stream encoded."""
        return self.vpns, self.counts

    def expand(self) -> np.ndarray:
        """Per-access page stream (``counts``-expanded), for round-trip
        property tests against the original trace."""
        return np.repeat(self.vpns, self.counts)


def stream_content_params(vpns: np.ndarray, counts: np.ndarray) -> dict:
    """Content-addressed cache params for one record stream.

    The digest covers the raw little-endian bytes of both arrays, so
    the key identifies the stream itself, not how it was generated —
    regenerated or copied traces share the cached encoding.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(vpns, dtype=np.uint64).tobytes())
    digest.update(np.ascontiguousarray(counts, dtype=np.int64).tobytes())
    return {"content": digest.hexdigest(), "records": int(vpns.size)}


# ----------------------------------------------------------------------
# exact whole-epoch LRU classification


def _group_by_set(set_ids: np.ndarray, tags: np.ndarray,
                  init_set_ids: np.ndarray, init_tags: np.ndarray):
    """Group (initial-stack ++ epoch) touches by set, program order kept.

    Returns ``(order, g_set, g_tag, run_start, prev_run, prefix)``:
    ``order`` the stable argsort over the concatenated arrays, the
    grouped set/tag views, the run-start mask (a new set or a tag
    change starts a run), the previous-run pointer (grouped index of
    the last touch of the previous run in the same set, -1 at the
    set's first run), and ``prefix`` the count of synthetic initial
    touches prepended.
    """
    prefix = int(init_set_ids.size)
    if prefix:
        all_sets = np.concatenate([init_set_ids, set_ids])
        all_tags = np.concatenate([init_tags, tags])
    else:
        all_sets = set_ids
        all_tags = tags
    total = all_sets.size
    # Stable argsort on a narrow unsigned key selects numpy's radix
    # sort (set counts are small powers of two).
    nsets_max = int(all_sets.max()) + 1 if total else 1
    if nsets_max <= 256:
        key = all_sets.astype(np.uint8)
    elif nsets_max <= 65536:
        key = all_sets.astype(np.uint16)
    else:  # pragma: no cover - no modelled TLB has 64K+ sets
        key = all_sets
    order = np.argsort(key, kind="stable")
    g_set = all_sets[order]
    g_tag = all_tags[order]
    new_set = np.empty(total, dtype=bool)
    run_start = np.empty(total, dtype=bool)
    if total:
        new_set[0] = True
        np.not_equal(g_set[1:], g_set[:-1], out=new_set[1:])
        run_start[0] = True
        np.not_equal(g_tag[1:], g_tag[:-1], out=run_start[1:])
        np.logical_or(run_start, new_set, out=run_start)
    idx = np.arange(total, dtype=np.int64)
    start_pos = np.maximum.accumulate(np.where(run_start, idx, 0))
    prev_run = np.where(
        (start_pos > 0) & ~new_set[start_pos], start_pos - 1, np.int64(-1)
    )
    return order, g_set, g_tag, run_start, prev_run, prefix


def classify_lru_hits(
    set_ids: np.ndarray,
    tags: np.ndarray,
    ways: int,
    init_set_ids: np.ndarray,
    init_tags: np.ndarray,
    depth: int = 0,
    nsets: int = 0,
) -> tuple[np.ndarray, int, list[list[int]] | None]:
    """Exact hit/miss classification of one structure's epoch touches.

    ``set_ids``/``tags`` are the structure's touch stream for the epoch
    in program order; ``init_set_ids``/``init_tags`` encode the
    structure's resident entries at epoch start as synthetic older
    touches (per set in LRU→MRU order — exactly the insertion order of
    the live set dicts). Returns ``(hits, fallbacks, contents)``: a
    boolean mask aligned with the epoch touches, the count of queries
    the vectorized chase left for the per-query fallback, and — when
    ``nsets`` is positive — the structure's final per-set contents in
    LRU→MRU order (the engine's phase-E reconstruction; derived from
    the same (set, tag) grouping the classification builds, so it
    costs one extra slice per set rather than a per-set ``unique``).
    """
    n = int(set_ids.size)
    if n == 0:
        contents = None
        if nsets:
            # No epoch touches: every set keeps its initial stack.
            contents = [[] for _ in range(nsets)]
            for s, tag in zip(init_set_ids.tolist(), init_tags.tolist()):
                contents[s].append(tag)
            contents = [stack[-ways:] if ways > 0 else [] for stack in contents]
        return np.zeros(0, dtype=bool), 0, contents
    if ways <= 0:
        empty = [[] for _ in range(nsets)] if nsets else None
        return np.zeros(n, dtype=bool), 0, empty

    order, g_set, g_tag, run_start, prev_run, prefix = _group_by_set(
        set_ids, tags, init_set_ids, init_tags
    )
    total = order.size
    # A run continuation re-touches the tag the set just touched: MRU,
    # guaranteed hit. Only run starts need the chase.
    hit_g = ~run_start
    is_real = order >= prefix

    # Small-set fast path: a set whose combined (resident + epoch) tag
    # vocabulary fits in the ways can never evict — fills only happen
    # on first touches, of which there are at most ``ways`` — so every
    # touch hits iff its tag appeared at all before it. This resolves
    # exactly the sets where the backward chase degenerates (few
    # distinct tags ping-ponging means the chain back to a tag's
    # previous touch can span the whole epoch without ever collecting
    # ``ways`` distinct others).
    pair_order = np.lexsort((g_tag, g_set))
    p_set = g_set[pair_order]
    p_tag = g_tag[pair_order]
    pair_start = np.empty(total, dtype=bool)
    pair_start[0] = True
    np.logical_or(
        p_set[1:] != p_set[:-1], p_tag[1:] != p_tag[:-1], out=pair_start[1:]
    )
    distinct_per_set = np.bincount(p_set[pair_start])
    # lexsort is stable over the grouped (program-order-within-set)
    # stream with initial touches first, so the first element of each
    # (set, tag) group is that tag's earliest touch.
    first_occ = np.zeros(total, dtype=bool)
    first_occ[pair_order[pair_start]] = True
    small = distinct_per_set[g_set] <= ways
    small_starts = run_start & small
    hit_g[small_starts] = ~first_occ[small_starts]

    # A first touch of a (set, tag) pair can never hit — the tag was
    # neither resident nor previously filled. Excluding these from the
    # chase matters doubly: cold touches are common (every faulted-in
    # page's first probe) and their chains are the deepest possible
    # (the walk would scan the set's entire history before concluding
    # "absent"). ``hit_g`` is already False at run starts.
    query = np.flatnonzero(run_start & is_real & ~small & ~first_occ)
    fallbacks = 0
    if query.size:
        if query.size <= 24:
            # Few queries: the per-lane walk beats the vectorized
            # chase's fixed per-step dispatch cost.
            states = [
                _chase_one(g_tag, prev_run, int(q), ways)
                for q in query.tolist()
            ]
            hit_g[query] = np.asarray(states, dtype=np.int8) == 1
        else:
            if depth <= 0:
                depth = 4 * ways + 8
            state = _chase(g_tag, prev_run, query, ways, depth)
            undecided = np.flatnonzero(state == 0)
            fallbacks = int(undecided.size)
            for qi in undecided.tolist():
                state[qi] = _chase_one(g_tag, prev_run, int(query[qi]), ways)
            hit_g[query] = state == 1
    hits = np.empty(n, dtype=bool)
    real_pos = np.flatnonzero(is_real)
    hits[order[real_pos] - prefix] = hit_g[real_pos]
    contents = None
    if nsets:
        contents = _final_contents(
            p_set, p_tag, pair_order, pair_start, total, nsets, ways
        )
    return hits, fallbacks, contents


def _final_contents(p_set, p_tag, pair_order, pair_start, total, nsets,
                    ways) -> list[list[int]]:
    """Final per-set LRU contents from the (set, tag) pair grouping.

    The final content of a W-way true-LRU set is its last W distinct
    tags ordered by last touch. The pair grouping (lexsort by set then
    tag, stable over grouped program order with initial synthetic
    touches first) gives each pair's last touch as the grouped index of
    its group's last element — untouched initial residents keep their
    stack order because their synthetic positions precede every epoch
    touch of the set.
    """
    if total == 0:
        return [[] for _ in range(nsets)]
    pair_pos = np.flatnonzero(pair_start)
    last_idx = np.empty(pair_pos.size, dtype=np.int64)
    last_idx[:-1] = pair_pos[1:]
    last_idx[:-1] -= 1
    last_idx[-1] = total - 1
    pr_set = p_set[pair_pos]
    pr_tag = p_tag[pair_pos]
    last_touch = pair_order[last_idx]
    order2 = np.lexsort((last_touch, pr_set))
    o_set = pr_set[order2]
    o_tag = pr_tag[order2]
    bounds = np.searchsorted(o_set, np.arange(nsets + 1))
    out: list[list[int]] = []
    for s in range(nsets):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        if hi - lo > ways:
            lo = hi - ways
        out.append(o_tag[lo:hi].tolist())
    return out


def _chase(g_tag: np.ndarray, prev_run: np.ndarray, query: np.ndarray,
           ways: int, depth: int) -> np.ndarray:
    """Vectorized backward chase over the previous-run chain.

    Per query lane: walk up to ``depth`` runs back, collecting distinct
    tags; resolve hit on finding the query's own tag with fewer than
    ``ways`` distinct others collected, miss on the ways-th distinct
    other or chain exhaustion. Returns the per-lane state array
    (0 undecided, 1 hit, 2 miss).
    """
    nq = query.size
    state = np.zeros(nq, dtype=np.int8)
    # Lanes compact as they resolve: ``lane`` maps each active row back
    # to its query, so the per-step cost tracks the undecided count
    # (most lanes resolve within a few steps).
    lane = np.arange(nq)
    target = g_tag[query]
    q = prev_run[query]
    wm1 = ways - 1
    slots = (
        np.full((wm1, nq), _EMPTY_SLOT, dtype=np.uint64) if wm1 else None
    )
    used = np.zeros(nq, dtype=np.int64)
    for _ in range(depth):
        if lane.size == 0:
            break
        dead = q < 0
        if dead.any():
            state[lane[dead]] = 2
            keep = ~dead
            lane, target, q, used = lane[keep], target[keep], q[keep], used[keep]
            if wm1:
                slots = slots[:, keep]
            if lane.size == 0:
                break
        t = g_tag[q]
        found = t == target
        if found.any():
            state[lane[found]] = 1
            keep = ~found
            lane, target, q, used = lane[keep], target[keep], q[keep], used[keep]
            t = t[keep]
            if wm1:
                slots = slots[:, keep]
            if lane.size == 0:
                break
        if wm1:
            fresh = ~(slots == t).any(axis=0)
            overflow = fresh & (used == wm1)
            if overflow.any():
                state[lane[overflow]] = 2
                keep = ~overflow
                lane, target, q, used = (
                    lane[keep], target[keep], q[keep], used[keep]
                )
                t, fresh, slots = t[keep], fresh[keep], slots[:, keep]
                if lane.size == 0:
                    break
            if fresh.any():
                slots[used[fresh], np.flatnonzero(fresh)] = t[fresh]
                used[fresh] += 1
        else:
            # Direct-mapped ways=1: any intervening different tag evicts.
            state[lane] = 2
            break
        q = prev_run[q]
    return state


def _chase_one(g_tag: np.ndarray, prev_run: np.ndarray, pos: int,
               ways: int) -> int:
    """Exact per-query fallback: walk the chain until resolution."""
    target = g_tag[pos]
    others: set[int] = set()
    p = int(prev_run[pos])
    while p >= 0:
        value = g_tag[p]
        if value == target:
            return 1
        others.add(int(value))
        if len(others) >= ways:
            return 2
        p = int(prev_run[p])
    return 2


def classify_lru_hits_ref(
    set_ids: np.ndarray,
    tags: np.ndarray,
    ways: int,
    initial: list[list[int]],
) -> np.ndarray:
    """Reference classification: simulate each set's LRU directly.

    ``initial[s]`` lists set ``s``'s resident tags in LRU→MRU order.
    Used by the property tests to pin the vectorized chase to ground
    truth.
    """
    sets: dict[int, dict[int, bool]] = {
        s: {int(tag): True for tag in content}
        for s, content in enumerate(initial)
    }
    hits = np.zeros(int(set_ids.size), dtype=bool)
    for i in range(int(set_ids.size)):
        s = int(set_ids[i])
        tag = int(tags[i])
        entries = sets.setdefault(s, {})
        if tag in entries:
            del entries[tag]
            entries[tag] = True
            hits[i] = True
        else:
            if len(entries) >= ways:
                del entries[next(iter(entries))]
            entries[tag] = True
    return hits


# ----------------------------------------------------------------------
# epoch-end reconstruction


def final_lru_contents(
    set_ids: np.ndarray,
    tags: np.ndarray,
    nsets: int,
    ways: int,
    initial: list[list[int]],
) -> list[list[int]]:
    """Final per-set LRU contents after the epoch's touches.

    The W most-recently-touched distinct tags per set, LRU→MRU: the
    epoch's touched tags ordered by last touch, preceded by whichever
    initial residents went untouched (their relative order persists —
    every epoch touch is more recent), truncated to the last ``ways``.
    Bit-identical to replaying every touch through the set dicts.
    """
    out: list[list[int]] = []
    for s in range(nsets):
        base = [int(tag) for tag in initial[s]]
        mask = set_ids == s
        if not mask.any():
            out.append(base)
            continue
        touched = tags[mask]
        reversed_view = touched[::-1]
        uniq, first_in_rev = np.unique(reversed_view, return_index=True)
        # Larger index in the reversed stream = earlier last touch.
        by_last = uniq[np.argsort(-first_in_rev, kind="stable")]
        touched_set = set(int(tag) for tag in by_last)
        merged = [tag for tag in base if tag not in touched_set]
        merged.extend(int(tag) for tag in by_last)
        out.append(merged[-ways:] if len(merged) > ways else merged)
    return out


def epoch_evictions(miss_set_ids: np.ndarray, nsets: int, ways: int,
                    occupancy0: np.ndarray) -> int:
    """Evictions a structure performs over one epoch, without replay.

    Occupancy never falls mid-epoch (no invalidations between ticks)
    and every classified miss fills exactly one entry, so per set the
    first ``ways - occupancy0`` fills land in empty ways and every
    further fill evicts the LRU victim.
    """
    fills = np.bincount(miss_set_ids, minlength=nsets)
    headroom = ways - occupancy0
    return int(np.maximum(fills - headroom, 0).sum())
