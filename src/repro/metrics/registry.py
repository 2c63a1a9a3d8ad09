"""Central metrics registry: named counters, providers, samples, export.

Counter values are plain ints; names are dotted paths
(``core0.tlb.L1-4K.hits``). The export schema is versioned and stable:
for a fixed machine configuration and policy, two runs produce the same
key set, and every counter is monotone over the run's interval samples.
"""

from __future__ import annotations

import json
from pathlib import Path
from sys import intern
from typing import Callable

from repro.obs.histo import Histogram

#: Versioned schema identifier written into every export.
SCHEMA = "repro.metrics/v1"


class Counter:
    """One named monotone counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative add {amount}")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class MetricsRegistry:
    """Registry of counters and counter providers for one run.

    Providers are zero-argument callables returning ``{name: int}``;
    they are invoked only at snapshot/sample time, so registering an
    existing stats object costs nothing on the simulation hot path.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._providers: list[Callable[[], dict[str, int]]] = []
        self._samples: list[dict] = []
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # registration

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def register(self, provider: Callable[[], dict[str, int]]) -> None:
        """Register a provider of ``{name: value}`` counter readings."""
        self._providers.append(provider)

    def histogram(self, name: str, unit: str = "") -> Histogram:
        """Get or create the named distribution.

        Histograms land in the export's ``distributions`` section; the
        section is always present (``{}`` when nothing recorded) so the
        v1 schema stays uniform whether or not a run was observed.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, unit=unit)
        return histogram

    def histograms(self) -> dict[str, Histogram]:
        """Live view of every registered distribution, by name.

        Read-only by convention: the Prometheus renderer walks the
        live objects rather than paying an ``as_dict`` round trip per
        scrape.
        """
        return self._histograms

    # ------------------------------------------------------------------
    # reading

    def snapshot(self) -> dict[str, int]:
        """Current value of every counter, sorted by name.

        Names are interned, so every sample of a run shares one string
        per name and a pickled result (a journal shard, a worker's
        return) stores each name once.
        """
        values: dict[str, int] = {c.name: c.value for c in self._counters.values()}
        for provider in self._providers:
            values.update(provider())
        return {intern(name): value for name, value in sorted(values.items())}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Per-counter difference between now and a prior snapshot.

        Counters absent from ``before`` are treated as 0 then.
        """
        now = self.snapshot()
        return {name: value - before.get(name, 0) for name, value in now.items()}

    # ------------------------------------------------------------------
    # interval sampling

    def sample(self, at: int) -> None:
        """Record a full snapshot at position ``at`` (accesses done).

        The engine samples at every OS promotion tick, so sample ``at``
        markers align 1:1 with ``SimulationResult.promotion_timeline``.
        """
        self._samples.append({"at": at, "counters": self.snapshot()})

    @property
    def samples(self) -> list[dict]:
        """Interval samples recorded so far."""
        return self._samples

    # ------------------------------------------------------------------
    # export

    def export(self, meta: dict | None = None) -> dict:
        """Stable-schema dict: counters, interval samples, distributions.

        ``distributions`` is ``{}`` for a non-observed run (no
        histograms were created), keeping the key set uniform.
        """
        return {
            "schema": SCHEMA,
            "meta": dict(meta or {}),
            "counters": self.snapshot(),
            "samples": list(self._samples),
            "distributions": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def write_json(self, path: str | Path, meta: dict | None = None) -> Path:
        """Write :meth:`export` to ``path`` as JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.export(meta), indent=2, sort_keys=True))
        return path
