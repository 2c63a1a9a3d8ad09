"""Deliberately broken engine/OS variants — the harness's self-test.

A validation subsystem that has never caught a bug proves nothing. Each
defect here is a named, reversible monkeypatch that disables one
correctness mechanism the oracle and invariants are supposed to defend:

- ``lost-fast-hits`` — the translation pipeline's flush of its batched
  hit counters drops the 2MB L1 hits, so the fast and columnar tiers
  under-count L1-2M hits (and hierarchy accesses) against the scalar
  reference, which never batches. The drop is self-consistent — every
  per-core partition law still balances — so only tier comparison
  sees it;
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
  catch it, which is exactly what it exists to prove;
- ``leaked-base-pages`` — promotion collapses a region's PTEs but never
  returns their 4KB pages to physical memory. Every tier shares the OS,
  so tier comparison is blind; the frame-conservation invariant sees
  the carved pages outnumber the mapped ones;
- ``slot-order-faults`` — a columnar span's fault pre-pass runs slot by
  slot instead of in the scalar loop's (round, slot) order, so a page
  two threads share faults on whichever slot comes first in the
  scheduler, not on the one that touched it first, and its fault work
  lands on that core's ledger. Only multi-round, multi-thread spans
  differ, and only the tier comparison sees it;
- ``span-core-alias`` — a columnar span's unified-L2 touches lose their
  core offset, so every core's L2 stream lands in the first core's
  sets: one core's fills evict and refresh another's entries, and the
  other cores' L2s never change. A lone slot's offset is zero anyway,
  so only multi-thread spans differ, and only the tier comparison sees
  it;
- ``walk-clock-at-start`` — an observed run clocks every walk at the
  start of the quantum or span that retired it instead of at its
  record, so a region's first-walk stamp, and with it the promotion
  lag, depends on how the tier batched the records. Simulation state
  is untouched; only the observed tiers' histogram agreement sees it.

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
def _patched(owner, attribute: str, replacement) -> Iterator[None]:
    """Install ``replacement`` as ``owner.attribute`` for the block."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def lost_fast_hits() -> contextlib.AbstractContextManager:
    """Make the pipeline's counter flush drop its pending 2MB L1 hits."""
    from repro.engine.machine import TranslationPipeline

    original = TranslationPipeline.sync

    def lossy_sync(self) -> None:
        lost = self._pending_huge_records
        original(self)
        tlb = self.core.tlb
        tlb.accesses -= lost
        tlb.l1_huge.stats.hits -= lost

    return _patched(TranslationPipeline, "sync", lossy_sync)


def pcc_no_decay() -> contextlib.AbstractContextManager:
    """Disable the PCC's frequency decay on counter saturation."""
    from repro.core.pcc import PromotionCandidateCache

    return _patched(PromotionCandidateCache, "_decay", lambda self: None)


def region_count_drift() -> contextlib.AbstractContextManager:
    """Make the page table's per-region base-page count drift high."""
    from repro.vm.address import huge_prefix
    from repro.vm.pagetable import PageTable

    original = PageTable.map_base

    def drifting_map_base(self, vaddr: int, frame: int) -> None:
        original(self, vaddr, frame)
        prefix = huge_prefix(vaddr)
        self._base_count[prefix] = self._base_count.get(prefix, 0) + 1

    return _patched(PageTable, "map_base", drifting_map_base)


def tlb_plru_drift() -> contextlib.AbstractContextManager:
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

    return _patched(plru, "victim", drifted_victim)


def leaked_base_pages() -> contextlib.AbstractContextManager:
    """Make promotion skip returning the collapsed base pages."""
    from repro.os.physmem import PhysicalMemory

    return _patched(PhysicalMemory, "release_base_pages",
                    lambda self, count: 0)


def slot_order_faults() -> contextlib.AbstractContextManager:
    """Run a span's fault windows slot by slot, not round by round."""
    from repro.engine import machine

    original = machine._fault_windows

    def by_slot(slots, ends) -> list:
        return sorted(original(slots, ends), key=lambda window: window[0])

    return _patched(machine, "_fault_windows", by_slot)


def span_core_alias() -> contextlib.AbstractContextManager:
    """Drop the core offset from a span's unified-L2 set ids."""
    from repro.engine import residue

    original = residue.span_set_ids

    def aliased(structures, slots, local_sets):
        if structures[0].name == "L2":
            return local_sets
        return original(structures, slots, local_sets)

    return _patched(residue, "span_set_ids", aliased)


def walk_clock_at_start() -> contextlib.AbstractContextManager:
    """Clock an observed run's walks at their quantum's or span's start."""
    from repro.engine import machine

    original = machine._note_walks

    def at_start(obs, base, slot, vpns, cycles, offsets) -> None:
        original(obs, base, slot, vpns, cycles, [0] * len(cycles))

    return _patched(machine, "_note_walks", at_start)


#: name -> context manager installing the defect for the duration
DEFECTS: dict[str, Callable[[], contextlib.AbstractContextManager]] = {
    "lost-fast-hits": lost_fast_hits,
    "pcc-no-decay": pcc_no_decay,
    "region-count-drift": region_count_drift,
    "tlb-plru-drift": tlb_plru_drift,
    "leaked-base-pages": leaked_base_pages,
    "slot-order-faults": slot_order_faults,
    "span-core-alias": span_core_alias,
    "walk-clock-at-start": walk_clock_at_start,
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
