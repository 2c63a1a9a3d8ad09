"""Columnar whole-stream trace encoding and exact set-LRU classification.

This module is the data layer of the columnar mega-batch engine tier
(``tier="columnar"`` on :class:`~repro.engine.machine.Machine`). It holds
two things:

* :class:`ColumnarStream` — a workload thread's compressed trace
  pre-encoded **once** into column arrays, the one form of the trace
  every engine tier reads: the uint64 page stream, run lengths and
  their prefix sums (whose ``searchsorted`` cuts every quantum
  window), and dense indices into the unique-page and unique-region
  vocabularies that the epoch passes gather from. The encoding is a
  property of the trace alone, so it is cached content-addressed
  alongside the trace in :mod:`repro.trace.cache` (keyed by a digest of
  the raw record bytes) and memory-mapped back on later runs.

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

The vectorized form counts over each touch's *reuse window*. Records
are grouped by set (one stable radix argsort) and maximal runs of the
same tag within a set collapse — a run continuation always hits. A
(set, tag) lexsort of the runs links each run to the next run of its
tag, ``nxt``. For a run ``i`` whose tag last ran at ``p``, the runs
``j`` in ``(p, i)`` with ``nxt(j) > i`` are exactly the last touches
of the distinct other tags in between, so ``i`` hits iff fewer than W
of them exist. A window shorter than W hits outright; longer ones are
counted backwards from ``i`` in vectorized blocks that double each
round, stopping at the W-th last occurrence (miss) or the window's end
(hit) — ``O(log gap)`` rounds, with no per-query Python walk.
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
    - ``page_ridx`` / ``page_tags``: dense index into the sorted
      unique-page vocabulary (the fault pre-pass keys its seen-page
      bitmap by this);
    - ``region_ridx`` / ``region_tags``: dense index into the sorted
      unique-2MB-region vocabulary (the per-epoch mapping-state gather
      keys by this).
    """

    vpns: np.ndarray
    counts: np.ndarray
    cum: np.ndarray
    page_ridx: np.ndarray
    page_tags: np.ndarray
    region_ridx: np.ndarray
    region_tags: np.ndarray

    def __len__(self) -> int:
        return int(self.vpns.size)

    @property
    def total_accesses(self) -> int:
        """Raw accesses the stream encodes (sum of run lengths)."""
        return int(self.cum[-1])

    @classmethod
    def encode(cls, vpns: np.ndarray, counts: np.ndarray) -> "ColumnarStream":
        """Encode a compressed record stream into column arrays."""
        from repro.resilience.faults import fault_point

        fault_point("engine.columnar.encode", detail=f"records={len(vpns)}")
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
        page_tags, page_ridx = np.unique(vpns, return_inverse=True)
        region_tags, region_ridx = np.unique(vpns >> np.uint64(_HUGE_SHIFT),
                                             return_inverse=True)
        return cls(
            vpns=vpns,
            counts=counts,
            cum=cum,
            page_ridx=np.ascontiguousarray(page_ridx, dtype=np.intp),
            page_tags=page_tags,
            region_ridx=np.ascontiguousarray(region_ridx, dtype=np.intp),
            region_tags=region_tags,
        )

    @classmethod
    def from_trace(cls, trace, cache=None) -> "ColumnarStream":
        """Encode a :class:`~repro.trace.events.CompressedTrace`.

        With a :class:`~repro.trace.cache.TraceCache`, the derived
        arrays are stored content-addressed (a digest of the raw
        ``vpns``/``counts`` bytes keys the entry, so any two identical
        streams share one entry regardless of workload name) and
        memory-mapped back on subsequent runs.
        """
        if cache is None:
            return cls.encode(trace.vpns, trace.counts)
        vpns = np.ascontiguousarray(trace.vpns, dtype=np.uint64)
        counts = np.ascontiguousarray(trace.counts, dtype=np.int64)
        params = stream_content_params(vpns, counts)

        def builder():
            stream = cls.encode(vpns, counts)
            arrays = {
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
            page_ridx=arrays["page_ridx"].astype(np.intp, copy=False),
            page_tags=arrays["page_tags"],
            region_ridx=arrays["region_ridx"].astype(np.intp, copy=False),
            region_tags=arrays["region_tags"],
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

    Returns ``(order, g_set, g_tag, run_start, prefix)``: ``order`` the
    stable argsort over the concatenated arrays, the grouped set/tag
    views, the run-start mask (a new set or a tag change starts a run),
    and ``prefix`` the count of synthetic initial touches prepended.
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
    run_start = np.empty(total, dtype=bool)
    if total:
        run_start[0] = True
        np.not_equal(g_tag[1:], g_tag[:-1], out=run_start[1:])
        run_start[1:] |= g_set[1:] != g_set[:-1]
    return order, g_set, g_tag, run_start, prefix


def classify_lru_hits(
    set_ids: np.ndarray,
    tags: np.ndarray,
    ways: int,
    init_set_ids: np.ndarray,
    init_tags: np.ndarray,
    nsets: int = 0,
) -> tuple[np.ndarray, list[list[int]] | None]:
    """Exact hit/miss classification of one structure's epoch touches.

    ``set_ids``/``tags`` are the structure's touch stream for the epoch
    in program order; ``init_set_ids``/``init_tags`` encode the
    structure's resident entries at epoch start as synthetic older
    touches (per set in LRU→MRU order — exactly the insertion order of
    the live set dicts). Returns ``(hits, contents)``: a boolean mask
    aligned with the epoch touches and — when ``nsets`` is positive —
    the structure's final per-set contents in LRU→MRU order (the
    engine's phase-E reconstruction; derived from the same (set, tag)
    grouping the classification builds, so it costs one extra slice
    per set rather than a per-set ``unique``).

    Each run start that is neither a first touch nor in a small set is
    classified by counting over its reuse window (:func:`_window_hits`).
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
        return np.zeros(0, dtype=bool), contents
    if ways <= 0:
        empty = [[] for _ in range(nsets)] if nsets else None
        return np.zeros(n, dtype=bool), empty

    order, g_set, g_tag, run_start, prefix = _group_by_set(
        set_ids, tags, init_set_ids, init_tags
    )
    # A run continuation re-touches the tag the set just touched: MRU,
    # guaranteed hit. Only run starts need classifying, so the rest of
    # the work is over the run-collapsed stream.
    runs = np.flatnonzero(run_start)
    r_set = g_set[runs]
    r_tag = g_tag[runs]
    nruns = runs.size
    # lexsort is stable over the grouped (program-order-within-set)
    # stream with initial touches first, so each (set, tag) group lists
    # that pair's runs in order: consecutive members link prv/nxt.
    pair_order = np.lexsort((r_tag, r_set))
    p_set = r_set[pair_order]
    p_tag = r_tag[pair_order]
    pair_start = np.empty(nruns, dtype=bool)
    pair_start[0] = True
    np.logical_or(
        p_set[1:] != p_set[:-1], p_tag[1:] != p_tag[:-1], out=pair_start[1:]
    )
    linked = ~pair_start[1:]
    earlier = pair_order[:-1][linked]
    later = pair_order[1:][linked]
    prv = np.full(nruns, -1, dtype=np.int64)
    prv[later] = earlier
    nxt = np.full(nruns, nruns, dtype=np.int64)
    nxt[earlier] = later

    # A first touch of a (set, tag) pair can never hit — the tag was
    # neither resident nor previously filled. Small-set fast path: a
    # set whose combined (resident + epoch) tag vocabulary fits in the
    # ways can never evict — fills only happen on first touches, of
    # which there are at most ``ways`` — so every touch hits iff its
    # tag appeared at all before it. That also settles exactly the sets
    # where windows grow longest (few distinct tags ping-ponging).
    hit_r = prv >= 0
    distinct_per_set = np.bincount(p_set[pair_start])
    query = np.flatnonzero(
        hit_r & (distinct_per_set[r_set] > ways) & (order[runs] >= prefix)
    )
    if query.size:
        hit_r[query] = _window_hits(nxt, query, prv[query], ways)
    hit_g = ~run_start
    hit_g[runs] = hit_r
    hits = np.empty(n, dtype=bool)
    is_real = order >= prefix
    hits[order[is_real] - prefix] = hit_g[is_real]
    contents = None
    if nsets:
        contents = _final_contents(
            p_set, p_tag, pair_order, pair_start, nruns, nsets, ways
        )
    return hits, contents


def _window_hits(nxt: np.ndarray, query: np.ndarray, prev: np.ndarray,
                 ways: int) -> np.ndarray:
    """Hit mask of query runs ``query`` whose previous same-tag runs are
    ``prev``, by counting last occurrences in each reuse window.

    Run ``j`` in the window ``(prev, query)`` is the last touch of its
    tag before the query iff ``nxt[j] > query``, so those runs number
    exactly the distinct other tags touched since the query tag's
    previous touch. A window shorter than ``ways`` hits outright; the
    rest count backwards from the query in blocks — gather ``nxt`` of
    the block, compare, sum — until the count reaches ``ways`` (miss)
    or the window ends (hit). Blocks double each round, so a window of
    ``g`` runs resolves in ``O(log g)`` rounds.
    """
    gap = query - prev - 1
    hit = gap < ways
    todo = np.flatnonzero(~hit)
    pos = query[todo]
    gap = gap[todo]
    count = np.zeros(todo.size, dtype=np.int64)
    scanned = 0
    width = ways
    while todo.size:
        width = min(width, int(gap.max()) - scanned)
        step = np.arange(scanned + 1, scanned + width + 1)
        j = pos[:, None] - step
        last = nxt[np.maximum(j, 0)] > pos[:, None]
        last &= step <= gap[:, None]
        count += last.sum(axis=1)
        scanned += width
        miss = count >= ways
        done = miss | (gap <= scanned)
        hit[todo[done & ~miss]] = True
        keep = ~done
        todo, pos, gap, count = todo[keep], pos[keep], gap[keep], count[keep]
        width *= 2
    return hit


def _final_contents(p_set, p_tag, pair_order, pair_start, total, nsets,
                    ways) -> list[list[int]]:
    """Final per-set LRU contents from the (set, tag) pair grouping.

    The final content of a W-way true-LRU set is its last W distinct
    tags ordered by last touch. The pair grouping (lexsort by set then
    tag, stable over the grouped run stream with initial synthetic
    touches first) gives each pair's last touch as the run index of
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
    o_tag = pr_tag[order2].tolist()
    bounds = np.searchsorted(o_set, np.arange(nsets + 1)).tolist()
    out: list[list[int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        out.append(o_tag[max(lo, hi - ways):hi])
    return out


def classify_lru_hits_ref(
    set_ids: np.ndarray,
    tags: np.ndarray,
    ways: int,
    initial: list[list[int]],
) -> np.ndarray:
    """Reference classification: simulate each set's LRU directly.

    ``initial[s]`` lists set ``s``'s resident tags in LRU→MRU order.
    Used by the property tests to pin the vectorized classifier to
    ground truth.
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
                    occupancy0: np.ndarray, groups: int) -> np.ndarray:
    """Evictions a structure performs over one epoch, without replay.

    Occupancy never falls mid-epoch (no invalidations between ticks)
    and every classified miss fills exactly one entry, so per set the
    first ``ways - occupancy0`` fills land in empty ways and every
    further fill evicts the LRU victim. The ``nsets`` sets split into
    ``groups`` equal runs (one per core of a span); returns each run's
    eviction count.
    """
    fills = np.bincount(miss_set_ids, minlength=nsets)
    headroom = ways - occupancy0
    return np.maximum(fills - headroom, 0).reshape(groups, -1).sum(axis=1)
