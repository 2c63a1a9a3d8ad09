"""Engine-side observation bundle (:class:`RunObserver`).

:class:`~repro.engine.machine.Machine` owns *one* observability
decision per run: :meth:`RunObserver.for_run` returns ``None`` unless
observation was requested, and every engine hook site guards on
``obs is not None`` — so a non-observed run pays a handful of attribute
checks per scheduling quantum / OS tick and *nothing* per memory
access (the per-walk hook swaps in a wrapped translate method only
when an observer exists).

When a run *is* observed the bundle provides:

- span/instant emission against the process's active tracer (absent
  tracer → histograms only, e.g. ``REPRO_OBS=1 --metrics-out``);
- the engine histograms of the ``distributions`` metrics section:
  ``walk_latency_cycles``, ``tick_duration_us``, and
  ``promotion_lag_accesses`` (first walk of a region → its promotion,
  measured in retired accesses, the engine's logical clock);
- top-K PCC/TLB state snapshots per OS tick, emitted as trace instant
  events for heatmap timelines.

Observation never mutates simulation state — every input it takes is
read-only — which is what keeps observed stats bit-identical.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

from repro.obs.tracer import active_tracer, tracing_enabled

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
        # (pid, region) -> total_accesses when the region first took a walk
        self._first_walk: dict[tuple[int, int], int] = {}

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
    # tracer passthrough (histogram-only observers get no-ops)

    def span(self, name: str, **args):
        """A tracer span, or an inert context when no tracer is active."""
        tracer = self.tracer
        if tracer is None:
            return nullcontext()
        return tracer.span(name, **args)

    def instant(self, name: str, **args) -> None:
        """A tracer instant event; dropped when no tracer is active."""
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(name, **args)

    # ------------------------------------------------------------------
    # engine hooks

    def note_walk(self, pid: int, region: int, cycles: int, now_accesses: int) -> None:
        """One completed page walk: latency sample + first-walk stamp."""
        self.walk_latency.record(cycles)
        key = (pid, region)
        if key not in self._first_walk:
            self._first_walk[key] = now_accesses

    def note_tick(self, duration_us: float) -> None:
        """Wall-clock duration of one OS tick (scan+rank+promote+flush)."""
        self.tick_duration.record(duration_us)

    def note_promotions(self, promoted, now_accesses: int) -> None:
        """Promotion lag per promoted region: first walk → promotion.

        ``promoted`` is the kernel's list of candidate records carrying
        ``pid`` and ``tag`` (the region number the PCC tracked).
        Regions promoted without a recorded first walk (e.g. resident
        before observation started) are skipped rather than guessed.
        """
        if not promoted:
            return
        first_walk = self._first_walk
        for record in promoted:
            start = first_walk.get((record.pid, record.tag))
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
