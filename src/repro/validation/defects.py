"""Deliberately broken engine/OS variants — the harness's self-test.

A validation subsystem that has never caught a bug proves nothing. Each
defect here is a named, reversible monkeypatch that disables one
correctness mechanism the oracle and invariants are supposed to defend:

- ``stale-hints`` — the fast path's MRU-hint memo is never invalidated
  after OS ticks mutate TLB state, so the fast tier serves
  translations from entries that shootdowns have removed;
- ``pcc-no-decay`` — the PCC's decay-on-saturation pass is disabled,
  letting frequency counters climb past the architectural
  ``counter_max``;
- ``region-count-drift`` — the page table's per-region base-page
  counter is double-incremented on fault, drifting away from the PTE
  population it summarizes;
- ``tlb-plru-drift`` — tree-PLRU victim selection descends the wrong
  root subtree, evicting a recently-used way. Every engine tier shares
  the drifted policy, so tier-vs-tier comparison stays green; only the
  independent reference oracle (``repro.validation.reference``) can
  catch it, which is exactly what it exists to prove.

The test suite (and ``repro validate --inject-defect``) asserts that
each injection is *caught* — by tier divergence or an invariant — and
that the failing case then shrinks to a small corpus reproducer. The
patches are process-global while active: inject around whole
validation runs, never concurrently.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator


@contextlib.contextmanager
def stale_hints() -> Iterator[None]:
    """Disable fast-path hint invalidation after TLB mutations."""
    from repro.engine.machine import TranslationPipeline

    original = TranslationPipeline.invalidate_hints
    TranslationPipeline.invalidate_hints = lambda self: None
    try:
        yield
    finally:
        TranslationPipeline.invalidate_hints = original


@contextlib.contextmanager
def pcc_no_decay() -> Iterator[None]:
    """Disable the PCC's frequency decay on counter saturation."""
    from repro.core.pcc import PromotionCandidateCache

    original = PromotionCandidateCache._decay
    PromotionCandidateCache._decay = lambda self: None
    try:
        yield
    finally:
        PromotionCandidateCache._decay = original


@contextlib.contextmanager
def region_count_drift() -> Iterator[None]:
    """Make the page table's per-region base-page count drift high."""
    from repro.vm.address import huge_prefix
    from repro.vm.pagetable import PageTable

    original = PageTable.map_base

    def drifting_map_base(self, vaddr: int, frame: int) -> None:
        original(self, vaddr, frame)
        prefix = huge_prefix(vaddr)
        self._base_count[prefix] = self._base_count.get(prefix, 0) + 1

    PageTable.map_base = drifting_map_base
    try:
        yield
    finally:
        PageTable.map_base = original


@contextlib.contextmanager
def tlb_plru_drift() -> Iterator[None]:
    """Make tree-PLRU victim selection descend the wrong root subtree.

    Flips the root direction bit before consulting the tree, so a full
    set evicts from the recently-used half. The production ``TLB``
    calls ``plru.victim`` through the module attribute precisely so
    this patch intercepts every structure at once; with all three tiers
    (scalar, fast, columnar) drifting together, the tier oracle is blind and only the reference
    cross-check's victim comparison trips. Inert under LRU (the tree is
    never consulted) and at 1-way sets (no subtree to get wrong).
    """
    from repro.tlb import plru

    original = plru.victim

    def drifted_victim(bits: int, ways: int) -> int:
        if ways > 1:
            bits ^= 1 << 1  # invert the root's left/right decision
        return original(bits, ways)

    plru.victim = drifted_victim
    try:
        yield
    finally:
        plru.victim = original


#: name -> context manager installing the defect for the duration
DEFECTS: dict[str, Callable[[], contextlib.AbstractContextManager]] = {
    "stale-hints": stale_hints,
    "pcc-no-decay": pcc_no_decay,
    "region-count-drift": region_count_drift,
    "tlb-plru-drift": tlb_plru_drift,
}


@contextlib.contextmanager
def inject(name: str) -> Iterator[None]:
    """Install defect ``name`` for the duration of the block."""
    try:
        defect = DEFECTS[name]
    except KeyError:
        raise ValueError(
            f"unknown defect {name!r}; available: {sorted(DEFECTS)}"
        ) from None
    with defect():
        yield
