"""Engine-side observation bundle (:class:`RunObserver`).

:class:`~repro.engine.machine.Machine` owns *one* observability
decision per run: :meth:`RunObserver.for_run` returns ``None`` unless
observation was requested, and every engine hook site guards on
``obs is not None`` — so a non-observed run pays a handful of attribute
checks per scheduling quantum / span / OS tick, one test per page walk,
and *nothing* per memory access. Observation picks no engine tier: an
observed run executes exactly what the same unobserved run executes,
and each tier hands its walks over in bulk (:meth:`note_walks`).

When a run *is* observed the bundle provides:

- the engine histograms of the ``distributions`` metrics section
  (also without a tracer, e.g. ``REPRO_OBS=1 --metrics-out``):
  ``walk_latency_cycles``, ``tick_duration_us``, and
  ``promotion_lag_accesses`` (first walk of a region → its promotion,
  on the run's retired-access clock; a 1GB region's first walk is the
  first anywhere in its gigabyte);
- top-K PCC/TLB state snapshots per OS tick, emitted as trace instant
  events for heatmap timelines.

Observation never mutates simulation state — every input it takes is
read-only — which is what keeps observed stats bit-identical.
"""

from __future__ import annotations

import os

import numpy as np

from repro.obs.tracer import active_tracer, tracing_enabled
from repro.vm.address import GIGA_PAGE_SHIFT, HUGE_PAGE_SHIFT, PageSize

#: 2MB region number -> 1GB region number shift.
_GIGA_SHIFT = GIGA_PAGE_SHIFT - HUGE_PAGE_SHIFT

#: Truthy value requests observation (histograms/snapshots) even
#: without a tracer, e.g. ``REPRO_OBS=1 repro fig7 --metrics-out ...``.
OBS_ENV = "REPRO_OBS"
#: Regions per PCC snapshot (default 8).
TOPK_ENV = "REPRO_OBS_TOPK"

_TRUTHY = {"1", "true", "yes", "on"}


def observation_requested() -> bool:
    """Whether auto mode should observe: tracer active or ``REPRO_OBS`` set."""
    return tracing_enabled() or os.environ.get(OBS_ENV, "").strip().lower() in _TRUTHY


class RunObserver:
    """Per-run observation state: histograms, first-walk table, tracer."""

    __slots__ = (
        "registry",
        "tracer",
        "top_k",
        "walk_latency",
        "tick_duration",
        "promotion_lag",
        "_first_walk",
    )

    def __init__(self, registry, tracer=None, top_k: int | None = None) -> None:
        self.registry = registry
        self.tracer = tracer
        if top_k is None:
            raw = os.environ.get(TOPK_ENV, "")
            top_k = int(raw) if raw.isdigit() and int(raw) > 0 else 8
        self.top_k = top_k
        self.walk_latency = registry.histogram("walk_latency_cycles", unit="cycles")
        self.tick_duration = registry.histogram("tick_duration_us", unit="us")
        self.promotion_lag = registry.histogram("promotion_lag_accesses", unit="accesses")
        # pid -> {2MB region -> retired-access clock of its first walk}
        self._first_walk: dict[int, dict[int, int]] = {}

    @classmethod
    def for_run(cls, registry) -> "RunObserver | None":
        """The run's observer, or ``None`` when the run is not observed.

        A run is observed iff a tracer is active or ``REPRO_OBS`` is
        truthy (:func:`observation_requested`); there is no override.
        """
        if not observation_requested():
            return None
        return cls(registry, tracer=active_tracer())

    # ------------------------------------------------------------------
    # engine hooks

    def note_walks(self, pid: int, regions, cycles, clocks) -> None:
        """Process ``pid``'s walks: latency samples, first-walk stamps.

        One array entry per walk: its 2MB region, cycles, and clock (its
        record's retired-access index, ascending within a batch). A
        span's slots arrive one by one, out of clock order, so a region
        keeps its smallest stamp.
        """
        values, repeats = np.unique(cycles, return_counts=True)
        record = self.walk_latency.record
        for value, repeat in zip(values.tolist(), repeats.tolist()):
            record(value, repeat)
        stamps = self._first_walk.setdefault(pid, {})
        walked, first = np.unique(regions, return_index=True)
        for region, clock in zip(walked.tolist(), clocks[first].tolist()):
            stamp = stamps.get(region)
            if stamp is None or clock < stamp:
                stamps[region] = clock

    def note_tick(self, duration_us: float) -> None:
        """Wall-clock duration of one OS tick (scan+rank+promote+flush)."""
        self.tick_duration.record(duration_us)

    def note_promotions(self, promoted, now_accesses: int) -> None:
        """Promotion lag per promoted region: first walk → promotion.

        ``promoted`` holds the kernel's candidate records (``pid``,
        ``tag``, ``page_size``); a 1GB record's tag is a gigabyte, first
        walked at the first walk of any 2MB region inside it. Regions
        promoted without a recorded first walk are skipped rather than
        guessed.
        """
        for record in promoted:
            stamps = self._first_walk.get(record.pid, {})
            if record.page_size is PageSize.GIGA:
                start = min((clock for region, clock in stamps.items()
                             if region >> _GIGA_SHIFT == record.tag),
                            default=None)
            else:
                start = stamps.get(record.tag)
            if start is not None:
                self.promotion_lag.record(now_accesses - start)

    def snapshot(self, now_accesses: int, tick_index: int,
                 regions, tlb_occupancy) -> None:
        """Top-K PCC region counts + TLB occupancy as a trace instant.

        ``regions`` is an iterable of ``(pid, region, frequency)``
        already ranked hottest-first; only the top K are emitted.
        """
        tracer = self.tracer
        if tracer is None:
            return
        top = [[pid, region, frequency] for pid, region, frequency in regions[: self.top_k]]
        tracer.instant(
            "pcc_state",
            cat="snapshot",
            accesses=now_accesses,
            tick=tick_index,
            top_regions=top,
            tlb=tlb_occupancy,
        )
