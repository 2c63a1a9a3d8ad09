"""Simulation-as-a-service: the ``repro serve`` subsystem.

A long-running, stdlib-only asyncio HTTP/JSON front end over the
existing experiment pipeline. The package composes machinery that
already exists elsewhere in the repository rather than reimplementing
it:

* requests run once, on the engine default, through
  :func:`repro.experiments.common.run_specs` (the resilient
  :func:`~repro.experiments.parallel.fan_out`). The fan-out's task
  retries, pool rebuilds and serial fallback are the only degradation;
  a run that still fails ends its job ``failed``, loudly;
* every accepted job is journaled through
  :class:`repro.resilience.journal.RunJournal` *before* the client is
  acknowledged, so a ``kill -9`` of the server loses nothing — jobs
  resume on restart (:mod:`repro.serve.lifecycle`);
* results are content-deduplicated through the same journal keys the
  ``--resume`` flag uses, so identical requests cost one simulation;
* admission control (bounded queue, per-tenant fair share, 429 +
  ``Retry-After``) lives in :mod:`repro.serve.admission`;
* the HTTP surface, health/readiness/drain endpoints, and the
  ``serve.accept`` / ``serve.dispatch`` / ``serve.result.publish``
  fault sites in :mod:`repro.serve.server`.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.lifecycle import Job, JobStore, execute_job
from repro.serve.protocol import (
    SERVE_SCHEMA,
    JobRequest,
    RequestError,
    envelope,
    result_summary,
)
from repro.serve.server import ServeConfig, SimulationServer

__all__ = [
    "SERVE_SCHEMA",
    "AdmissionController",
    "AdmissionDecision",
    "Job",
    "JobRequest",
    "JobStore",
    "RequestError",
    "ServeConfig",
    "SimulationServer",
    "envelope",
    "execute_job",
    "result_summary",
]
