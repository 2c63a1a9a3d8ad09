"""Admission control and backpressure for the simulation service.

The server accepts work only while it can still honor it: one bounded
queue caps total exposure, and a per-tenant quota keeps a single noisy
tenant from starving everyone else. Rejections are *structured* — a
:class:`AdmissionDecision` carries the reason and a ``Retry-After``
hint derived from the current backlog, so clients can back off
intelligently instead of hammering a saturated server.

Dispatch order is **fair share**: tenants are drained round-robin, one
job per turn, regardless of how deep any single tenant's backlog is.
Within one tenant, jobs run in submission order. Jobs requeued by the
crash-recovery path (or by a fault at a ``serve.*`` site) bypass the
quota check — they were already admitted once; refusing them would
turn recovery into loss.

The controller is deliberately lock-free: the server is a single
asyncio loop, and every admission mutation happens on that loop.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass

#: Default ceilings; the CLI exposes both as flags.
DEFAULT_QUEUE_LIMIT = 256
DEFAULT_TENANT_QUOTA = 64


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt."""

    admitted: bool
    reason: str = ""
    #: seconds the client should wait before retrying (429 hint)
    retry_after: int = 0


class AdmissionController:
    """Bounded, tenant-fair job queue."""

    def __init__(
        self,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        expected_job_seconds: float = 0.25,
    ) -> None:
        self.queue_limit = queue_limit
        self.tenant_quota = tenant_quota
        self.expected_job_seconds = expected_job_seconds
        #: per-tenant FIFO backlogs, in round-robin rotation order
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._depth = 0

    # ------------------------------------------------------------------
    # admission

    def try_admit(self, job) -> AdmissionDecision:
        """Admit ``job`` into its tenant's backlog, or refuse with a hint."""
        if self._depth >= self.queue_limit:
            return AdmissionDecision(
                admitted=False,
                reason=f"queue full ({self._depth}/{self.queue_limit} jobs)",
                retry_after=self._retry_after(),
            )
        backlog = self._queues.get(job.tenant)
        if backlog is not None and len(backlog) >= self.tenant_quota:
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"tenant {job.tenant!r} at quota "
                    f"({len(backlog)}/{self.tenant_quota} queued jobs)"
                ),
                retry_after=self._retry_after(len(backlog)),
            )
        self._push(job)
        return AdmissionDecision(admitted=True)

    def requeue(self, job) -> None:
        """Re-enter an already-admitted job (recovery / fault retry).

        Quota-exempt: the job was accepted before; dropping it now
        would violate the zero-lost-jobs contract.
        """
        self._push(job, front=True)

    def _push(self, job, front: bool = False) -> None:
        backlog = self._queues.get(job.tenant)
        if backlog is None:
            backlog = deque()
            self._queues[job.tenant] = backlog
        if front:
            backlog.appendleft(job)
        else:
            backlog.append(job)
        self._depth += 1

    def _retry_after(self, tenant_backlog: int | None = None) -> int:
        """Seconds until capacity plausibly frees up.

        Scales with whichever backlog caused the rejection, so a
        tenant over quota on an otherwise idle server is told to come
        back sooner than anyone is during full saturation.
        """
        backlog = self._depth if tenant_backlog is None else tenant_backlog
        return max(1, math.ceil(backlog * self.expected_job_seconds))

    # ------------------------------------------------------------------
    # dispatch

    def next_job(self):
        """Pop the next job, round-robin across tenants; ``None`` if idle."""
        while self._queues:
            tenant, backlog = next(iter(self._queues.items()))
            # rotate: this tenant goes to the back whether or not it
            # still has work, giving every other tenant a turn first
            self._queues.move_to_end(tenant)
            if backlog:
                self._depth -= 1
                job = backlog.popleft()
                if not backlog:
                    del self._queues[tenant]
                return job
            del self._queues[tenant]
        return None

    # ------------------------------------------------------------------
    # introspection

    @property
    def depth(self) -> int:
        """Jobs currently queued (all tenants)."""
        return self._depth

    def tenants(self) -> dict[str, int]:
        """Queued-job count per tenant (for /v1/jobs and /metrics)."""
        return {tenant: len(q) for tenant, q in self._queues.items() if q}
