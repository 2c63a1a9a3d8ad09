"""Crash-safe job lifecycle for the simulation service.

The contract the server makes when it returns ``202 Accepted``: the
job now exists durably and will eventually reach a terminal state,
surviving any crash of the server in between. The machinery is the
repository's existing checkpoint journal
(:class:`~repro.resilience.journal.RunJournal`):

* the job record is committed as a journal shard **before** the accept
  response is written — a shard is published with an atomic rename, so
  a ``kill -9`` at any instant leaves either no job (client never got
  its 202, and retries) or a complete, replayable record;
* every state transition re-commits the shard under the same key
  (last write wins, still atomic), so the record always names the
  job's current state;
* on startup :meth:`JobStore.recover` loads every shard and returns
  the non-terminal jobs for requeueing — the resume path after a kill;
* the *results* of a job's simulation runs are committed through the
  ordinary results journal by :func:`~repro.experiments.common.run_specs`
  (``resume=True``), keyed by run content. Re-executing a recovered or
  requeued job therefore recomputes nothing that already finished, and
  two different jobs asking for the same run share one simulation:
  content-level exactly-once effects on top of at-least-once dispatch.

:func:`execute_job` is the worker-thread body: it runs the request's
specs once, on the engine default, and threads the request deadline
into the fan-out's :class:`~repro.resilience.retry.RetryPolicy` timeout
(the ``REPRO_TASK_TIMEOUT`` path) so an overrunning fan-out is
cancelled rather than orphaned. Task retries, pool rebuilds and the
serial fallback all happen inside
:func:`~repro.experiments.parallel.fan_out`; a spec that still fails
fails the job — an engine defect surfaces as a ``failed`` job naming
the spec, never as a slower success.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.obs.progress import progress_scope
from repro.obs.runid import current_run_id
from repro.resilience import bus
from repro.resilience.journal import RunJournal
from repro.resilience.retry import RetryPolicy
from repro.serve.protocol import JobRequest, result_summary

#: Job states. ``queued`` and ``running`` are recoverable; the rest
#: are terminal.
QUEUED, RUNNING, DONE, FAILED, EXPIRED = (
    "queued", "running", "done", "failed", "expired",
)
TERMINAL_STATES = frozenset({DONE, FAILED, EXPIRED})

#: Dispatch attempts a job gets before it is failed outright (guards
#: against a job that crashes the server every time it runs).
MAX_JOB_ATTEMPTS = 3

#: Journal-key prefix for job records (results shards use content
#: hashes, which never collide with this).
_KEY_PREFIX = "job."


def now_ms() -> int:
    """Wall-clock epoch milliseconds (journaled; human-correlatable)."""
    return int(time.time() * 1000)


@dataclass
class Job:
    """One journaled job: request payload plus lifecycle bookkeeping."""

    id: str
    tenant: str
    payload: dict
    state: str = QUEUED
    submitted_ms: int = 0
    finished_ms: int | None = None
    run_id: str = ""
    attempts: int = 0
    results: list | None = None
    error: dict | None = None

    @classmethod
    def from_request(cls, request: JobRequest) -> "Job":
        return cls(
            id=request.id,
            tenant=request.tenant,
            payload=request.payload,
            submitted_ms=now_ms(),
            run_id=current_run_id(),
        )

    def request(self) -> JobRequest:
        """Rebuild the validated request from the journaled payload."""
        return JobRequest.from_payload(self.payload)

    # ------------------------------------------------------------------
    # deadline

    def deadline_remaining(self) -> float | None:
        """Seconds left before this job's deadline, or ``None``."""
        deadline_s = self.payload.get("deadline_s")
        if deadline_s is None:
            return None
        elapsed = (now_ms() - self.submitted_ms) / 1000.0
        return float(deadline_s) - elapsed

    # ------------------------------------------------------------------
    # (de)serialization — shards hold plain dicts, not Job instances,
    # so old servers can read records written by newer ones

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "payload": self.payload,
            "state": self.state,
            "submitted_ms": self.submitted_ms,
            "finished_ms": self.finished_ms,
            "run_id": self.run_id,
            "attempts": self.attempts,
            "results": self.results,
            "error": self.error,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Job":
        return cls(**{f: record.get(f) for f in (
            "id", "tenant", "payload", "state", "submitted_ms",
            "finished_ms", "run_id", "attempts", "results", "error",
        )})


class JobStore:
    """Durable job records on a :class:`RunJournal` directory."""

    def __init__(self, directory) -> None:
        self.journal = RunJournal(directory)

    def key_of(self, job_id: str) -> str:
        return f"{_KEY_PREFIX}{job_id}"

    def save(self, job: Job) -> None:
        """Atomically commit the job's current state as its shard."""
        self.journal.commit(self.key_of(job.id), job.to_record())

    def load(self, job_id: str) -> Job | None:
        record = self.journal.load(self.key_of(job_id))
        if record is None:
            return None
        return Job.from_record(record)

    def recover(self) -> tuple[list[Job], list[Job]]:
        """All journaled jobs, split into (unfinished, finished).

        Unfinished jobs — ``queued`` or ``running`` at crash time — are
        the server's restart obligation: requeue and run them. A shard
        the journal quarantines as corrupt simply drops out of the
        listing; its job was never acknowledged completely or will be
        resubmitted by the client, both of which the dedup layer makes
        safe.
        """
        unfinished: list[Job] = []
        finished: list[Job] = []
        for key in self.journal.keys():
            if not key.startswith(_KEY_PREFIX):
                continue
            record = self.journal.load(key)
            if not isinstance(record, dict) or "id" not in record:
                continue
            job = Job.from_record(record)
            if job.state in TERMINAL_STATES:
                finished.append(job)
            else:
                unfinished.append(job)
        unfinished.sort(key=lambda job: (job.submitted_ms, job.id))
        finished.sort(key=lambda job: (job.submitted_ms, job.id))
        return unfinished, finished


#: Per-run counter infix whose per-core readings are folded onto the
#: process-global bus as ``engine.<name>`` (tier activity: fast hits,
#: columnar epochs and retirements, fallbacks).
_TIER_COUNTER_MARKER = ".fastpath."

#: The columnar tier's span counters, exported from the first served
#: job on even at zero (a PLRU-only daemon never epochs; an LRU one may
#: never fall back), so every scrape has all four series.
_SPAN_COUNTERS = ("columnar_epochs", "columnar_mt_epochs",
                  "columnar_fallbacks", "columnar_plru_fallbacks")


def accumulate_engine_counters(results) -> None:
    """Fold per-run engine-tier counters onto the resilience bus.

    The per-run registries are ephemeral (they live on the result
    object); the serving daemon's ``/metrics`` surface needs
    cumulative tier activity across every job, so the tier counters
    are summed over cores and jobs and re-published here under
    ``engine.*`` — an un-prefixed name, hence ``bus.registry()``
    rather than ``bus.counter`` (which would stamp ``resilience.``).
    """
    registry = bus.registry()
    for short in _SPAN_COUNTERS:
        registry.counter(f"engine.{short}")
    for result in results:
        metrics = getattr(result, "metrics", None)
        if not isinstance(metrics, dict):
            continue
        for name, value in metrics.get("counters", {}).items():
            position = name.find(_TIER_COUNTER_MARKER)
            if position < 0 or not isinstance(value, int) or value <= 0:
                continue
            short = name[position + len(_TIER_COUNTER_MARKER):]
            registry.counter(f"engine.{short}").add(value)


class JobExecutionError(RuntimeError):
    """A job's specs failed after the fan-out's own retries."""

    def __init__(self, message: str, report: dict | None) -> None:
        super().__init__(message)
        self.report = report


class JobDeadlineExceeded(RuntimeError):
    """A job's deadline expired while it was executing."""


def deadline_policy(
    base: RetryPolicy, deadline_remaining: float | None
) -> RetryPolicy:
    """Retry policy with the job deadline folded into the task timeout.

    The fan-out's per-task timeout is the cancellation mechanism for
    overrunning work (`REPRO_TASK_TIMEOUT` path): a task that outlives
    the job's remaining deadline is expired and its pool recycled, so
    a doomed job releases its workers instead of holding them hostage.
    """
    if deadline_remaining is None:
        return base
    ceiling = max(0.1, deadline_remaining)
    if base.timeout is None or base.timeout > ceiling:
        return replace(base, timeout=ceiling)
    return base


def execute_job(
    job: Job,
    results_journal: RunJournal | None,
    *,
    jobs: int = 1,
    retry_policy: RetryPolicy | None = None,
) -> list[dict]:
    """Run one job's simulations; returns one summary per run.

    Worker-thread body. The specs run once, on the engine default.
    Any failure raises :class:`JobExecutionError` carrying the
    :class:`~repro.experiments.parallel.FanOutReport` when the fan-out
    produced one (it names every quarantined spec).
    """
    from repro.experiments.common import run_specs
    from repro.experiments.parallel import FanOutError

    remaining = job.deadline_remaining()
    if remaining is not None and remaining <= 0:
        # the server turns this into EXPIRED, not FAILED
        raise JobDeadlineExceeded(f"job {job.id} deadline expired")
    policy = deadline_policy(retry_policy or RetryPolicy.from_env(), remaining)
    try:
        # the scope labels in-process runs with the job id (the pooled
        # path gets the same label via progress_label -> worker
        # initargs), so live progress snapshots attribute to this job
        # whichever execution path runs the specs
        with progress_scope(job.id):
            results = run_specs(
                job.request().to_specs(),
                jobs=jobs,
                resume=True,
                journal=results_journal,
                policy=policy,
                progress_label=job.id,
            )
    except FanOutError as error:
        raise JobExecutionError(
            f"job {job.id} failed: {error}", report=error.report.as_dict()
        ) from error
    except Exception as error:  # failures outside the per-task retries
        raise JobExecutionError(
            f"job {job.id} failed: {type(error).__name__}: {error}", report=None
        ) from error
    accumulate_engine_counters(results)
    return [result_summary(result) for result in results]
