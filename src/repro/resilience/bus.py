"""Process-global resilience counters on the ``repro.metrics`` bus.

Unlike the per-run :class:`~repro.metrics.registry.MetricsRegistry` the
engine creates for every simulation, resilience events (retries, pool
rebuilds, quarantines, cache repairs, journal activity) happen *between*
runs, in the experiment pipeline itself. They accumulate in one
process-global registry and are published to any active
:func:`repro.metrics.collecting` block as a ``repro.metrics/v1`` export
whose meta carries ``component: resilience`` — so ``--metrics-out``
aggregates show exactly how much self-healing a sweep needed.

Every documented counter is pre-registered at import time, so the
export's key set is stable whether or not an event ever fired.
"""

from __future__ import annotations

from repro.metrics import Counter, MetricsRegistry, publish_run
from repro.obs.histo import Histogram
from repro.obs.runid import current_run_id

#: Every counter the resilience layer maintains. Pre-registered so the
#: ``repro.metrics/v1`` export always carries the full, stable key set.
COUNTER_NAMES = (
    "resilience.tasks.retried",
    "resilience.tasks.timeouts",
    "resilience.tasks.quarantined",
    "resilience.tasks.resumed",
    "resilience.pool.rebuilds",
    "resilience.pool.serial_fallbacks",
    "resilience.faults.injected",
    "resilience.cache.corrupted",
    "resilience.cache.repaired",
    "resilience.cache.stale_tmp_removed",
    "resilience.journal.commits",
    "resilience.journal.corrupt",
    "resilience.journal.quarantined",
    "resilience.serve.accepted",
    "resilience.serve.rejected",
    "resilience.serve.completed",
    "resilience.serve.failed",
    "resilience.serve.expired",
    "resilience.serve.requeued",
    "resilience.serve.recovered",
)

_REGISTRY = MetricsRegistry()
for _name in COUNTER_NAMES:
    _REGISTRY.counter(_name)


def registry() -> MetricsRegistry:
    """The process-global resilience metrics registry."""
    return _REGISTRY


def counter(name: str) -> Counter:
    """The ``resilience.<name>`` counter (created on first use)."""
    return _REGISTRY.counter(f"resilience.{name}")


def histogram(name: str, unit: str = "") -> Histogram:
    """A pipeline-level distribution on the resilience registry.

    Used for observations that happen *between* simulation runs (e.g.
    ``fan_out`` task wall time); exported in the same ``component:
    resilience`` publication as the counters.
    """
    return _REGISTRY.histogram(name, unit=unit)


def snapshot() -> dict[str, int]:
    """Current value of every resilience counter."""
    return _REGISTRY.snapshot()


def publish(meta: dict | None = None) -> dict:
    """Publish the counters to active collectors; returns the export."""
    export = _REGISTRY.export(
        meta={
            "component": "resilience",
            "run_id": current_run_id(),
            **(meta or {}),
        }
    )
    publish_run(export)
    return export
