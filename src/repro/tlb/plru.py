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
state in a flat list, and so the validation defects can monkeypatch
victim selection at the module boundary (``repro.tlb`` calls these
through the module attribute, never through a hoisted reference).
"""

from __future__ import annotations


def leaf_count(ways: int) -> int:
    """Smallest power of two >= ``ways`` (the tree's leaf width)."""
    p = 1
    while p < ways:
        p <<= 1
    return p


def touch(bits: int, ways: int, way: int) -> int:
    """Return ``bits`` after marking ``way`` most-recently-used.

    Every internal node on the leaf's path to the root is pointed at
    the *other* subtree. Touching the same way twice is a no-op
    (idempotence) — the property the engine's fast-path hint tier relies
    on to skip re-touches exactly.
    """
    if ways <= 1:
        return bits
    node = leaf_count(ways) + way
    while node > 1:
        parent = node >> 1
        if node & 1:
            # touched way lives right of ``parent``: victim goes left
            bits &= ~(1 << parent)
        else:
            bits |= 1 << parent
        node = parent
    return bits


def victim(bits: int, ways: int) -> int:
    """Way the tree designates for eviction under ``bits``.

    Follows the direction bits from the root; a step into an unbacked
    subtree (possible only when ``ways`` is not a power of two) is
    redirected to the left sibling, which is always at least partially
    backed.
    """
    if ways <= 1:
        return 0
    p = leaf_count(ways)
    node = 1
    while node < p:
        child = node * 2 + ((bits >> node) & 1)
        # leftmost leaf reachable from ``child``
        low = child
        while low < p:
            low <<= 1
        if low - p >= ways:
            child = node * 2
        node = child
    return node - p
