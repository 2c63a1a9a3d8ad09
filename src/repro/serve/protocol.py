"""Request/response wire format for the simulation service.

One schema tag (``repro.serve/v1``) covers both directions. A request
is a JSON object naming a tenant and one or more simulation runs; each
run maps onto a :class:`~repro.experiments.common.RunSpec`, the same
picklable value the figure sweeps fan out, so the service schedules
exactly the computation the CLI does. Responses are **envelopes**: job
identity and state, the run id that produced any artifacts, and either
a result summary or a structured error. The envelope's ``degraded``
field is always an empty list: the service never swaps in a fallback
engine on a job's behalf, so a job either ran as asked or failed.

Validation is strict and front-loaded: a malformed request — including
an unknown ``app``, ``dataset`` or ``policy`` — raises
:class:`RequestError` (rendered as a 400) before anything is journaled
or queued, so the crash-safe lifecycle only ever stores replayable
jobs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.obs.runid import new_run_id
from repro.os.kernel import HugePagePolicy
from repro.workloads.registry import DATASETS, EXTENDED_WORKLOADS, workload_names

#: Schema tag stamped into every response envelope.
SERVE_SCHEMA = "repro.serve/v1"

#: Client-suppliable job ids: filesystem- and URL-safe, bounded.
_JOB_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Tenant names: same shape, shorter.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,31}$")

#: ``runs[*]`` keys accepted from the wire, with per-key coercers.
_RUN_FIELDS = {
    "app": str,
    "policy": str,
    "dataset": str,
    "graph_scale": int,
    "proxy_accesses": int,
    "fragmentation": float,
    "budget_percent": int,
    "demotion": bool,
    "promote_every_accesses": int,
    "seed": int,
    "label": str,
}

#: Ceilings a single request may ask for; the service exists to run
#: *small* requests at volume, not to be a batch queue for full-scale
#: figure sweeps (those belong to the CLI).
MAX_RUNS_PER_JOB = 64
MAX_GRAPH_SCALE = 16
MAX_PROXY_ACCESSES = 2_000_000


class RequestError(ValueError):
    """A request failed validation; rendered as a 400 with detail."""


@dataclass
class JobRequest:
    """One validated submission, ready to journal and enqueue."""

    id: str
    tenant: str
    runs: list[dict]
    deadline_s: float | None = None
    jobs: int = 1
    #: the raw payload, kept verbatim so the journaled job record can
    #: rebuild this request bit-for-bit after a server restart
    payload: dict = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload) -> "JobRequest":
        """Validate one decoded JSON body into a request."""
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        job_id = payload.get("id")
        if job_id is None:
            job_id = f"job-{new_run_id()}"
        if not isinstance(job_id, str) or not _JOB_ID_RE.match(job_id):
            raise RequestError(
                "id must match [A-Za-z0-9][A-Za-z0-9._-]{0,63}"
            )
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise RequestError(
                "tenant must match [A-Za-z0-9][A-Za-z0-9._-]{0,31}"
            )
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                raise RequestError("deadline_s must be a number") from None
            if deadline_s <= 0:
                raise RequestError("deadline_s must be positive")
        jobs = payload.get("jobs", 1)
        if not isinstance(jobs, int) or jobs < 1:
            raise RequestError("jobs must be a positive integer")
        raw_runs = payload.get("runs")
        if not isinstance(raw_runs, list) or not raw_runs:
            raise RequestError("runs must be a non-empty list")
        if len(raw_runs) > MAX_RUNS_PER_JOB:
            raise RequestError(
                f"runs is capped at {MAX_RUNS_PER_JOB} per job"
            )
        runs = [_validate_run(index, run) for index, run in enumerate(raw_runs)]
        return cls(
            id=job_id,
            tenant=tenant,
            runs=runs,
            deadline_s=deadline_s,
            jobs=jobs,
            payload=dict(payload),
        )

    def to_specs(self):
        """The request's runs as :class:`RunSpec` values."""
        from repro.experiments.common import RunSpec

        return [RunSpec(**run) for run in self.runs]


def _validate_run(index: int, run) -> dict:
    """One ``runs[index]`` entry, checked and coerced field by field."""
    if not isinstance(run, dict):
        raise RequestError(f"runs[{index}] must be an object")
    unknown = sorted(set(run) - set(_RUN_FIELDS))
    if unknown:
        raise RequestError(
            f"runs[{index}] has unknown fields {unknown}; "
            f"accepted: {sorted(_RUN_FIELDS)}"
        )
    if "app" not in run:
        raise RequestError(f"runs[{index}] names no app")
    out: dict = {}
    for name, value in run.items():
        coerce = _RUN_FIELDS[name]
        if value is None and name in ("budget_percent", "seed",
                                      "promote_every_accesses"):
            continue
        try:
            out[name] = coerce(value)
        except (TypeError, ValueError):
            raise RequestError(
                f"runs[{index}].{name} must be {coerce.__name__}"
            ) from None
    apps = workload_names() + list(EXTENDED_WORKLOADS)
    if out["app"] not in apps:
        raise RequestError(
            f"runs[{index}].app {out['app']!r} unknown; choose from {apps}"
        )
    if "dataset" in out and out["dataset"] not in DATASETS:
        raise RequestError(
            f"runs[{index}].dataset {out['dataset']!r} unknown; "
            f"choose from {sorted(DATASETS)}"
        )
    policy = out.setdefault("policy", HugePagePolicy.PCC.value)
    try:
        HugePagePolicy(policy)
    except ValueError:
        choices = sorted(p.value for p in HugePagePolicy)
        raise RequestError(
            f"runs[{index}].policy {policy!r} unknown; choose from {choices}"
        ) from None
    out.setdefault("graph_scale", 10)
    out.setdefault("proxy_accesses", 20_000)
    if out["graph_scale"] > MAX_GRAPH_SCALE:
        raise RequestError(
            f"runs[{index}].graph_scale is capped at {MAX_GRAPH_SCALE}"
        )
    if out["proxy_accesses"] > MAX_PROXY_ACCESSES:
        raise RequestError(
            f"runs[{index}].proxy_accesses is capped at {MAX_PROXY_ACCESSES}"
        )
    fragmentation = out.get("fragmentation", 0.0)
    if not 0.0 <= fragmentation <= 1.0:
        raise RequestError(
            f"runs[{index}].fragmentation must be within [0, 1]"
        )
    return out


def result_summary(result) -> dict:
    """JSON-safe digest of one :class:`SimulationResult`.

    The service returns summaries, not pickled result objects: the
    fields every figure and report derives from, small enough to embed
    thousands of per-job envelopes in one load-test artifact.
    """
    return {
        "policy": result.policy,
        "total_cycles": result.total_cycles,
        "accesses": result.accesses,
        "walks": result.walks,
        "walk_rate": round(result.walk_rate, 6),
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
        "promotions": result.promotions,
        "demotions": result.demotions,
    }


def envelope(job) -> dict:
    """The response envelope for one :class:`~repro.serve.lifecycle.Job`."""
    return {
        "schema": SERVE_SCHEMA,
        "job": {
            "id": job.id,
            "tenant": job.tenant,
            "state": job.state,
            "run_id": job.run_id,
            "submitted_ms": job.submitted_ms,
            "finished_ms": job.finished_ms,
            "attempts": job.attempts,
        },
        # always empty in repro.serve/v1: kept so clients reading it
        # keep working; a job that cannot run as asked ends failed
        "degraded": [],
        "result": job.results,
        "error": job.error,
    }
