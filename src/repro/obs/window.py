"""Sliding-window rates and percentiles over a metrics registry.

The bus (:mod:`repro.resilience.bus`) and the per-run registries only
carry *monotone totals* — correct for post-hoc aggregation, useless for
"how busy is the server right now". :class:`WindowedAggregator` closes
that gap: it periodically snapshots a registry's counters and histogram
buckets into a ring of timestamped samples and answers rate and
percentile queries over the trailing 10s/1m/5m windows by differencing
the window's edge samples.

Differencing works because everything sampled is monotone: counters
only grow, and histogram buckets only gain counts (fixed geometric
boundaries make bucket-wise subtraction exact — the same property that
makes cross-process merges exact). The windowed histogram is therefore
a true histogram of *only the samples recorded inside the window*, and
its percentiles come from the ordinary interpolation path.

The aggregator is passive: something must call :meth:`tick` on a
cadence (the serving daemon runs a ~2s ticker task; tests inject a
fake clock and tick manually). Queries between ticks see the window
ending at the newest sample, not at "now" — a deliberate trade that
keeps scrapes allocation-light.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable

from repro.obs.histo import _UNDERFLOW, Histogram, bucket_bounds

#: Named trailing windows answered by the aggregator, in seconds.
WINDOWS: dict[str, float] = {"10s": 10.0, "1m": 60.0, "5m": 300.0}

#: Default seconds between samples when the owner runs a ticker.
DEFAULT_RESOLUTION_S = 2.0


class WindowedAggregator:
    """Ring of registry samples answering trailing-window queries."""

    def __init__(
        self,
        registry=None,
        clock: Callable[[], float] = time.monotonic,
        resolution_s: float = DEFAULT_RESOLUTION_S,
    ) -> None:
        if registry is None:
            from repro.resilience import bus

            registry = bus.registry()
        self.registry = registry
        self.resolution_s = resolution_s
        self._clock = clock
        self._span_s = max(WINDOWS.values())
        #: (t, {counter: value}, {hist: (counts, count, total)})
        self._samples: deque[tuple[float, dict, dict]] = deque()

    # ------------------------------------------------------------------
    # sampling

    def tick(self) -> None:
        """Record one sample and evict those past the longest window."""
        now = self._clock()
        counters = self.registry.snapshot()
        hists = {
            name: (dict(h.counts), h.count, h.total)
            for name, h in self.registry.histograms().items()
        }
        self._samples.append((now, counters, hists))
        horizon = now - self._span_s - self.resolution_s
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def __len__(self) -> int:
        return len(self._samples)

    # ------------------------------------------------------------------
    # queries

    def _edges(self, window: str):
        """(oldest-in-window, newest) sample pair, or ``None`` if <2."""
        if window not in WINDOWS:
            raise KeyError(f"unknown window {window!r} (have {sorted(WINDOWS)})")
        if len(self._samples) < 2:
            return None
        newest = self._samples[-1]
        cutoff = newest[0] - WINDOWS[window]
        oldest = None
        for sample in self._samples:
            if sample[0] >= cutoff:
                oldest = sample
                break
        if oldest is None or oldest is newest or newest[0] <= oldest[0]:
            return None
        return oldest, newest

    def rates(self, window: str = "1m") -> dict[str, float]:
        """Per-counter events/second over the trailing window.

        Empty when fewer than two samples fall inside the window (a
        just-started server has no rate yet, not a zero rate).
        """
        edges = self._edges(window)
        if edges is None:
            return {}
        (t0, old, _), (t1, new, _) = edges
        dt = t1 - t0
        return {
            name: round(max(0.0, value - old.get(name, 0)) / dt, 6)
            for name, value in new.items()
        }

    def windowed_histogram(self, name: str, window: str = "1m") -> Histogram | None:
        """Histogram of only the samples recorded inside the window.

        Bucket-wise subtraction of the edge snapshots; exact because
        boundaries are fixed and buckets are monotone. The extrema are
        approximated by the outermost non-empty delta buckets' bounds
        (the true min/max of just-the-window samples is not recoverable
        from totals), keeping percentile error within one bucket width.
        ``None`` when the histogram is absent or the window has no
        usable edge pair.
        """
        edges = self._edges(window)
        if edges is None:
            return None
        (_, _, old_h), (_, _, new_h) = edges
        if name not in new_h:
            return None
        new_counts, new_count, new_total = new_h[name]
        old_counts, old_count, old_total = old_h.get(name, ({}, 0, 0.0))
        unit = ""
        live = self.registry.histograms().get(name)
        if live is not None:
            unit = live.unit
        delta = Histogram(name, unit=unit)
        for index, count in new_counts.items():
            d = count - old_counts.get(index, 0)
            if d > 0:
                delta.counts[index] = d
        delta.count = max(0, new_count - old_count)
        delta.total = max(0.0, new_total - old_total)
        if delta.counts:
            indices = sorted(delta.counts)
            lo_idx, hi_idx = indices[0], indices[-1]
            delta.min = 0.0 if lo_idx == _UNDERFLOW else bucket_bounds(lo_idx)[0]
            delta.max = 0.0 if hi_idx == _UNDERFLOW else bucket_bounds(hi_idx)[1]
        return delta

    def percentiles(
        self,
        name: str,
        window: str = "1m",
        qs: tuple[float, ...] = (50.0, 95.0, 99.0),
    ) -> dict[str, float]:
        """Windowed percentiles for one histogram (``{}`` when empty)."""
        delta = self.windowed_histogram(name, window)
        if delta is None or not delta.count:
            return {}
        return delta.percentiles(qs)

    def summary(self, windows: tuple[str, ...] = ("10s", "1m", "5m")) -> dict:
        """Rates plus histogram digests for every requested window.

        A JSON-friendly digest:
        ``{window: {"rates": {...}, "histograms": {name: digest}}}``
        with zero-rate counters elided to keep payloads small.
        """
        doc: dict = {}
        for window in windows:
            rates = {k: v for k, v in self.rates(window).items() if v > 0}
            hists = {}
            for name in self.registry.histograms():
                delta = self.windowed_histogram(name, window)
                if delta is not None and delta.count:
                    hists[name] = {
                        "count": delta.count,
                        "mean": round(delta.mean, 6),
                        **delta.percentiles(),
                    }
            doc[window] = {"rates": rates, "histograms": hists}
        return doc
