"""Seeded random cases for the differential-oracle fuzzer.

A :class:`FuzzCase` is one self-contained test input: a miniature
system configuration (tiny-TLB geometry with randomized OS/PCC knobs)
plus per-thread synthetic page streams. Cases are **plain data** —
lists of page indexes and scalar knobs — so they serialize to JSON for
the regression corpus and shrink structurally (drop a thread, drop a
span of accesses, simplify a knob) without re-deriving anything.

Streams are composed from the same primitives the workload proxies use
(:mod:`repro.trace.synthesis`): sequential sweeps for spatial locality,
Zipf bursts for hot-region reuse, uniform tails for fragmentation-like
scatter, and segments replayed across threads for sharing. All
randomness flows through the case seed, so ``generate_case(seed)`` is a
pure function.

Some PCC cases enable the 1GB PCC (``giga``) on a machine with two
1GB frame runs, so 1GB promotions — and the 2MB pages they absorb —
run through the same oracle as everything else. Some cases shrink the
round-robin ``thread_quantum`` below a promotion interval, so a tick
spans several scheduler rounds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.config import OSConfig, PCCConfig, SystemConfig, tiny_config
from repro.engine.system import ProcessWorkload
from repro.os.kernel import HugePagePolicy, KernelParams
from repro.trace import synthesis
from repro.trace.events import Trace
from repro.vm.address import BASE_PAGE_SHIFT, GIGA_PAGE_SHIFT, HUGE_PAGE_SHIFT
from repro.vm.layout import DEFAULT_HEAP_BASE, AddressSpaceLayout

#: Every fuzz stream lives in one VMA at the canonical heap base.
WINDOW_BASE = DEFAULT_HEAP_BASE

#: 4KB pages per 2MB region.
PAGES_PER_REGION = 1 << (HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT)

#: Policies the fuzzer draws from, weighted toward PCC (the richest
#: machinery: PCC structures, dump/flush, promotion, demotion).
_POLICY_CHOICES = (
    "PCC",
    "PCC",
    "PCC",
    "LINUX_THP",
    "HAWKEYE",
    "ORACLE",
    "IDEAL",
    "NONE",
)


@dataclass
class FuzzCase:
    """One generated (configuration, stream) pair, JSON-serializable."""

    seed: int
    policy: str = "PCC"
    fragmentation: float = 0.0
    promote_every: int = 64
    regions_to_promote: int = 4
    pcc_entries: int = 4
    pcc_counter_bits: int = 8
    pcc_replacement: str = "lfu"
    pcc_dump_mode: str = "flush"
    demotion: bool = False
    #: TLB replacement policy for every hierarchy structure
    #: ("lru" or "plru"); omitted from the JSON form at the default so
    #: every historical case keeps its content hash
    tlb_replacement: str = "lru"
    #: TLB geometry overrides: structure name ("l1_base", "l1_huge",
    #: "l1_giga", "l2") -> [entries, associativity]; empty means the
    #: tiny-config default grid (and is omitted from the JSON form)
    tlb_geometry: dict = field(default_factory=dict)
    #: pages in the single VMA window (multiple 2MB regions)
    window_pages: int = 1024
    #: enable the 1GB PCC (and memory for a 1GB-aligned frame run);
    #: omitted from the JSON form when off
    giga: bool = False
    #: accesses per scheduler quantum; omitted from the JSON form at
    #: the engine default
    thread_quantum: int = 2048
    #: window-relative 2MB region indexes preselected for ORACLE runs
    static_regions: list[int] = field(default_factory=list)
    #: per-thread streams of window-relative 4KB page indexes
    threads: list[list[int]] = field(default_factory=list)
    #: free-form provenance note ("fuzz", "shrunk from ...", defect name)
    label: str = ""

    # ------------------------------------------------------------------

    @property
    def total_accesses(self) -> int:
        """Accesses across every thread."""
        return sum(len(t) for t in self.threads)

    @property
    def case_id(self) -> str:
        """Short stable content hash naming the case."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        """Plain-data form for JSON round-tripping.

        The TLB, 1GB and quantum knobs are dropped at their defaults
        so every case minted before they existed serializes — and
        hashes — exactly as it always did (``case_id`` is a content
        hash).
        """
        data = asdict(self)
        for name, default in (("tlb_replacement", "lru"),
                              ("tlb_geometry", {}), ("giga", False),
                              ("thread_quantum", 2048)):
            if data[name] == default:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        """Rebuild a case from :meth:`to_dict` output."""
        case = cls(**data)
        case.threads = [[int(p) for p in t] for t in case.threads]
        case.static_regions = [int(r) for r in case.static_regions]
        case.tlb_geometry = {
            name: [int(v) for v in geometry]
            for name, geometry in case.tlb_geometry.items()
        }
        return case

    def describe(self) -> str:
        """One-line human summary for fuzzer progress output."""
        return (
            f"case {self.case_id} seed={self.seed} policy={self.policy} "
            f"threads={len(self.threads)} accesses={self.total_accesses} "
            f"window={self.window_pages}p promote_every={self.promote_every}"
        )

    # ------------------------------------------------------------------
    # realization

    def huge_policy(self) -> HugePagePolicy:
        """The case's policy as the kernel enum."""
        return HugePagePolicy[self.policy]

    def build_config(self) -> SystemConfig:
        """Tiny-geometry system configuration with this case's knobs."""
        base = tiny_config()
        tlb = base.tlb
        if self.tlb_geometry:
            structure_overrides = {}
            for name in ("l1_base", "l1_huge", "l1_giga", "l2"):
                if name in self.tlb_geometry:
                    entries, associativity = self.tlb_geometry[name]
                    structure_overrides[name] = replace(
                        getattr(tlb, name),
                        entries=int(entries),
                        associativity=int(associativity),
                    )
            tlb = replace(tlb, **structure_overrides)
        if self.tlb_replacement != "lru":
            tlb = tlb.with_replacement(self.tlb_replacement)
        return base.with_(
            tlb=tlb,
            pcc=PCCConfig(
                entries=self.pcc_entries,
                counter_bits=self.pcc_counter_bits,
                giga_entries=2,
                giga_enabled=self.giga,
                replacement=self.pcc_replacement,
            ),
            # two 1GB-aligned frame runs: one stays free while 2MB pages
            # occupy the other
            memory_bytes=(2 << GIGA_PAGE_SHIFT) if self.giga
            else base.memory_bytes,
            os=OSConfig(
                promote_every_accesses=self.promote_every,
                regions_to_promote=self.regions_to_promote,
                demotion_enabled=self.demotion,
                scan_pages_per_interval=max(
                    PAGES_PER_REGION, self.window_pages // 2
                ),
            ),
        )

    def build_params(self) -> KernelParams:
        """Kernel parameters matching the configuration knobs."""
        region_base = WINDOW_BASE >> HUGE_PAGE_SHIFT
        return KernelParams(
            regions_to_promote=self.regions_to_promote,
            demotion_enabled=self.demotion,
            pcc_dump_mode=self.pcc_dump_mode,
            static_huge_regions=tuple(
                region_base + r for r in self.static_regions
            ),
        )

    def build_workload(self) -> ProcessWorkload:
        """Fresh process workload for one run.

        Built anew on every call: runs bind threads to cores and the
        engine mutates nothing in the case itself, but sharing one
        workload object between differential runs would let any future
        in-place mutation silently couple them.
        """
        layout = AddressSpaceLayout.from_vmas(
            {"fuzz": (WINDOW_BASE, self.window_pages << BASE_PAGE_SHIFT)}
        )
        # ``case_id`` digests the whole case; take it once per build
        name = f"fuzz-{self.case_id}"
        traces = []
        for i, pages in enumerate(self.threads):
            offsets = np.asarray(pages, dtype=np.uint64) << np.uint64(
                BASE_PAGE_SHIFT
            )
            addresses = np.uint64(WINDOW_BASE) + offsets
            traces.append(
                Trace(
                    name=f"{name}.t{i}",
                    addresses=addresses,
                    footprint_bytes=self.window_pages << BASE_PAGE_SHIFT,
                )
            )
        if len(traces) == 1:
            return ProcessWorkload.single_thread(traces[0], layout, name=name)
        return ProcessWorkload.multi_thread(traces, layout, name=name)

    @property
    def cores(self) -> int:
        """One core per thread (static pinning, like the experiments)."""
        return max(1, len(self.threads))


# ----------------------------------------------------------------------
# generation


def _segment_pages(
    rng: random.Random, np_rng: np.random.Generator, window_pages: int
) -> list[int]:
    """One stream segment: a locality motif over the window."""
    window = (0, window_pages << BASE_PAGE_SHIFT)
    kind = rng.choice(("sweep", "zipf", "uniform", "dwell"))
    if kind == "sweep":
        # Contiguous scan of a random sub-span: spatial locality that
        # builds dense regions the promotion policies should pick.
        count = rng.randrange(40, 200)
        span = rng.randrange(8, max(9, window_pages // 2))
        start = rng.randrange(0, max(1, window_pages - span))
        sub = (start << BASE_PAGE_SHIFT, span << BASE_PAGE_SHIFT)
        addrs = synthesis.sequential(sub, count, stride=1 << BASE_PAGE_SHIFT)
        return (np.asarray(addrs) >> np.uint64(BASE_PAGE_SHIFT)).astype(int).tolist()
    if kind == "zipf":
        # Hot-region reuse: most accesses land on a few pages.
        count = rng.randrange(40, 250)
        addrs = synthesis.zipf_random(
            window,
            count,
            np_rng,
            exponent=rng.uniform(1.05, 1.6),
            granularity=1 << BASE_PAGE_SHIFT,
            hot_fraction=rng.uniform(0.05, 0.5),
        )
        return (np.asarray(addrs) >> np.uint64(BASE_PAGE_SHIFT)).astype(int).tolist()
    if kind == "uniform":
        # Scatter: TLB-hostile, exercises eviction and PCC churn.
        count = rng.randrange(20, 120)
        addrs = synthesis.uniform_random(
            window, count, np_rng, granularity=1 << BASE_PAGE_SHIFT
        )
        return (np.asarray(addrs) >> np.uint64(BASE_PAGE_SHIFT)).astype(int).tolist()
    # dwell: hammer a handful of pages — drives PCC counters toward
    # saturation (decay paths) and fast-path tier-1 hint hits.
    pages = [rng.randrange(0, window_pages) for _ in range(rng.randrange(1, 4))]
    count = rng.randrange(60, 300)
    return [pages[i % len(pages)] for i in range(count)]


def _thread_stream(
    rng: random.Random,
    np_rng: np.random.Generator,
    window_pages: int,
    shared_segment: list[int],
) -> list[int]:
    """Compose one thread's stream from a few motifs."""
    stream: list[int] = []
    segments = rng.randrange(2, 5)
    for _ in range(segments):
        stream.extend(_segment_pages(rng, np_rng, window_pages))
    if shared_segment and rng.random() < 0.6:
        # Sharing knob: replay a segment other threads also run, so
        # multithread runs contend on the same regions.
        at = rng.randrange(0, len(stream) + 1)
        stream[at:at] = shared_segment
    if len(stream) > 1 and rng.random() < 0.4:
        # Revisit: replay an earlier span, reinforcing temporal reuse.
        span = rng.randrange(1, min(80, len(stream)))
        at = rng.randrange(0, len(stream) - span + 1)
        stream.extend(stream[at : at + span])
    return [int(p) % window_pages for p in stream]


def generate_case(
    seed: int,
    min_threads: int = 1,
    *,
    tlb_replacement: str | None = None,
    tlb_geometry: dict | None = None,
) -> FuzzCase:
    """Deterministically derive one fuzz case from ``seed``.

    ``min_threads`` raises the thread count floor (the multi-thread
    epoch sweeps pin it to 2+). ``tlb_replacement`` and
    ``tlb_geometry`` let harnesses (the replacement-policy sweeps and
    the reference-oracle cross-check) pin the TLB knobs the case runs
    under; earlier versions silently ignored geometry overrides, so
    way/set counts only ever came from the default grid. All overrides
    are applied after every random draw, so the defaults keep every
    historical seed's case byte-identical.
    """
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)

    window_pages = rng.choice((256, 512, 1024, 2048, 4096))
    nthreads = max(rng.choice((1, 1, 2)), min_threads)
    shared: list[int] = []
    if nthreads > 1:
        shared = _segment_pages(rng, np_rng, window_pages)

    case = FuzzCase(
        seed=seed,
        policy=rng.choice(_POLICY_CHOICES),
        fragmentation=rng.choice((0.0, 0.0, 0.5, 0.9)),
        promote_every=rng.choice((32, 64, 128, 256, 512)),
        regions_to_promote=rng.randrange(1, 8),
        pcc_entries=rng.choice((4, 8, 16)),
        # Small counters saturate under the dwell motif, exercising the
        # PCC's decay-on-saturation path.
        pcc_counter_bits=rng.choice((2, 3, 4, 8)),
        pcc_replacement=rng.choice(("lfu", "lru")),
        pcc_dump_mode=rng.choice(("flush", "flush", "snapshot")),
        demotion=rng.random() < 0.3,
        window_pages=window_pages,
        threads=[
            _thread_stream(rng, np_rng, window_pages, shared)
            for _ in range(nthreads)
        ],
        label="fuzz",
    )
    nregions = max(1, window_pages // PAGES_PER_REGION)
    # ORACLE needs preselected regions to do anything; give every case
    # a plausible static set so policy flips during shrinking stay
    # meaningful.
    picks = rng.randrange(0, nregions + 1)
    case.static_regions = sorted(rng.sample(range(nregions), picks))
    case.giga = case.policy == "PCC" and rng.random() < 0.4
    case.thread_quantum = rng.choice((2048, 2048, 8, 32))
    if tlb_replacement is not None:
        case.tlb_replacement = tlb_replacement
    if tlb_geometry is not None:
        case.tlb_geometry = {
            name: [int(v) for v in geometry]
            for name, geometry in tlb_geometry.items()
        }
    return case
