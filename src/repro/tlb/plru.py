"""Tree pseudo-LRU replacement state as pure functions over a bitmask.

Real translation hardware (Ariane's TLBs, most x86 L1 caches) cannot
afford true LRU's per-entry age ordering; an N-way set keeps one bit
per internal node of a binary tree over the ways instead. Every touch
flips the bits on the leaf-to-root path to point *away* from the
touched way; the victim walk starts at the root and follows the bits
*toward* the pseudo-least-recently-used leaf.

The whole tree is packed into one Python int, heap-indexed: node 1 is
the root, node ``n``'s children are ``2n`` and ``2n+1``, and the leaves
``P..2P-1`` map to ways ``0..P-1`` where ``P`` is the smallest power of
two >= ways. Bit ``n`` of the mask is node ``n``'s direction bit
(0 = victim on the left, 1 = victim on the right).

Non-power-of-two way counts leave the trailing leaves of the tree
unbacked; the victim walk steers left whenever the indicated subtree
contains no real way. Because ``P`` is minimal, more than half of every
subtree rooted on the root's left spine is backed, so the walk always
terminates on a valid way and — for ways >= 2 — never on the way that
was touched last.

Functions take and return plain ints so callers can store per-set
state in a flat list. A touch depends only on the way, so it reduces to
one AND and one OR with per-way masks (:func:`touch_masks`), which the
hot paths in ``repro.tlb`` inline. Victim selection stays a call:
``repro.tlb`` reaches :func:`victim` through the module attribute,
never through a hoisted reference, so the validation defects can
monkeypatch it at the module boundary.
"""

from __future__ import annotations

from functools import lru_cache


def leaf_count(ways: int) -> int:
    """Smallest power of two >= ``ways`` (the tree's leaf width)."""
    return 1 << (ways - 1).bit_length()


@lru_cache(maxsize=None)
def touch_masks(ways: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-way ``(keep, set)`` masks: ``touch`` as one AND and one OR.

    Touching ``way`` rewrites exactly the nodes on its leaf-to-root
    path, each to a value fixed by the way alone, so
    ``touch(bits, ways, w) == (bits & keep[w]) | set[w]``: ``keep[w]``
    clears the path's node bits (keeping every other node bit) and
    ``set[w]`` holds the bits the path ends with. The hot paths in
    :mod:`repro.tlb` hoist these tables and inline the update.
    """
    p = leaf_count(ways)
    full = (1 << p) - 1
    keep = []
    set_ = []
    for way in range(ways):
        path = 0
        on = 0
        node = p + way
        while node > 1:
            parent = node >> 1
            path |= 1 << parent
            if not node & 1:
                # touched way lives left of ``parent``: victim goes right
                on |= 1 << parent
            node = parent
        keep.append(full & ~path)
        set_.append(on)
    return tuple(keep), tuple(set_)


def touch(bits: int, ways: int, way: int) -> int:
    """Return ``bits`` after marking ``way`` most-recently-used.

    Every internal node on the leaf's path to the root is pointed at
    the *other* subtree. Touching the same way twice is a no-op
    (idempotence) — the property the engine's fast-path hint tier relies
    on to skip re-touches exactly.
    """
    keep, set_ = touch_masks(ways)
    return (bits & keep[way]) | set_[way]


def victim(bits: int, ways: int) -> int:
    """Way the tree designates for eviction under ``bits``.

    Follows the direction bits from the root; a step into an unbacked
    subtree (possible only when ``ways`` is not a power of two) is
    redirected to the left sibling, which is always at least partially
    backed.
    """
    if ways <= 1:
        return 0
    depth = (ways - 1).bit_length()
    p = 1 << depth
    node = 1
    for level in range(depth - 1, -1, -1):
        child = node * 2 + ((bits >> node) & 1)
        # ``child << level`` is the leftmost leaf reachable from it
        if (child << level) - p >= ways:
            child = node * 2
        node = child
    return node - p
