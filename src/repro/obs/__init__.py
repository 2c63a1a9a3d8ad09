"""Deep observability for the reproduction pipeline (``repro.obs``).

Five cooperating pieces, all **off by default** and free when disabled:

- :mod:`repro.obs.tracer` — a low-overhead hierarchical span tracer
  (context-manager + decorator API over a monotonic clock) whose output
  is Chrome trace-event JSON, loadable in Perfetto or ``chrome://
  tracing``. Worker processes spool span shards to disk and the parent
  merges them by run id, so one ``--jobs N`` sweep yields one timeline.
- :mod:`repro.obs.histo` — fixed-boundary log-bucketed histograms
  (walk latency, tick duration, promotion lag, fan-out task wall time)
  exported under the ``distributions`` section of the
  ``repro.metrics/v1`` schema.
- :mod:`repro.obs.observer` — the engine-side hook bundle: when a run
  is observed, :class:`~repro.engine.machine.Machine` emits spans for
  run phases, scheduling quanta, and OS-tick stages, records the
  histograms above, and samples PCC/TLB state snapshots per dump
  interval. When not observed, the only engine cost is a handful of
  ``is None`` checks per quantum/tick.
- :mod:`repro.obs.log` — structured run logging: ``REPRO_LOG=json``
  switches every pipeline log record to JSON lines tagged with the run
  id and the currently open span.
- :mod:`repro.obs.progress` — live ``repro.progress/v1`` snapshots
  (records done, tier, throughput EWMA, ETA) emitted at a bounded
  cadence from the engine's scheduler loop and delivered via scoped
  sinks or the cross-process spool; the feed behind the serving
  daemon's per-job SSE streams and ``repro progress``.

One stable **run id** (:mod:`repro.obs.runid`) threads through metrics
exports, journal shards, resilience-bus publications, structured logs,
and trace files, so ``repro inspect`` can correlate every artifact of a
single invocation.
"""

from repro.obs.histo import Histogram
from repro.obs.progress import (
    PROGRESS_SCHEMA,
    ProgressReporter,
    add_sink,
    progress_enabled,
    progress_for_run,
    progress_scope,
    remove_sink,
)
from repro.obs.runid import RUN_ID_ENV, current_run_id, new_run_id, set_run_id
from repro.obs.tracer import SpanTracer, active_tracer, span, traced, tracing_enabled

__all__ = [
    "Histogram",
    "PROGRESS_SCHEMA",
    "ProgressReporter",
    "RUN_ID_ENV",
    "SpanTracer",
    "active_tracer",
    "add_sink",
    "current_run_id",
    "new_run_id",
    "progress_enabled",
    "progress_for_run",
    "progress_scope",
    "remove_sink",
    "set_run_id",
    "span",
    "traced",
    "tracing_enabled",
]
