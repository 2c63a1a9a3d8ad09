"""The ``repro serve`` asyncio HTTP/JSON front end.

Stdlib-only: one :func:`asyncio.start_server` loop parses a minimal
HTTP/1.1 subset (request line, headers, ``Content-Length`` bodies,
keep-alive) and routes to JSON handlers. All admission and
job-registry state is confined to the event loop; only the simulation
itself runs off-loop, in ``asyncio.to_thread`` executor slots.

Endpoints::

    POST /v1/jobs             submit a job (202, 200 if duplicate id,
                              400 invalid, 429 saturated + Retry-After,
                              503 draining/fault)
    GET  /v1/jobs/<id>        response envelope for one job
    GET  /v1/jobs/<id>/events live SSE stream: the job's state
                              transitions and progress snapshots
    GET  /v1/jobs/<id>/spans  the job's merged span slice from the
                              active tracer (empty + note when off)
    GET  /v1/jobs             registry summary (states, queue, tenants)
    GET  /healthz             liveness (always 200 while the loop runs)
    GET  /readyz              readiness (503 while draining)
    GET  /metrics             Prometheus text exposition v0.0.4
    POST /v1/drain            stop accepting; exit once queue drains

Live telemetry: the daemon advertises a progress spool
(``REPRO_PROGRESS_SPOOL`` under the state directory) so every engine
run — in-process executor threads and fan-out worker processes alike —
appends ``repro.progress/v1`` snapshots there; a loop task tails the
spool and republishes each snapshot as an SSE ``progress`` event on
its job's channel. ``/metrics`` exports the resilience bus as
monotone ``_total`` counters; a scraper derives rates with ``rate()``.

Crash safety: a job is journaled (``JobStore.save``) *before* its 202
is written, and re-journaled at every transition. ``kill -9`` the
server at any point; on restart :meth:`SimulationServer.recover`
requeues every non-terminal job, and the content-addressed results
journal makes the re-execution skip all finished work — zero lost,
zero duplicated.

Failure: a job runs its specs once, on the engine default. The
fan-out retries failed tasks, rebuilds a dead process pool and falls
back to serial execution on its own; whatever still fails after that
ends the job ``failed`` with the fan-out report in its error. There is
no second degradation layer here.

Chaos hooks: the ``serve.accept``, ``serve.dispatch``, and
``serve.result.publish`` fault sites extend the ``REPRO_FAULTS``
grammar into the serving path. A fault at accept surfaces as a
structured 503; a fault at dispatch or publish requeues the job
through the same at-least-once machinery a crash exercises.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from repro.metrics.prometheus import render as render_prometheus
from repro.obs.log import get_logger, log_event
from repro.obs.progress import SpoolTailer, disable_spool, enable_spool
from repro.obs.runid import current_run_id
from repro.obs.tracer import active_tracer, span
from repro.resilience import bus
from repro.resilience.faults import InjectedFault, fault_point
from repro.resilience.journal import RunJournal
from repro.serve import lifecycle
from repro.serve.admission import AdmissionController
from repro.serve.events import EventBroker, format_comment, format_event
from repro.serve.lifecycle import (
    MAX_JOB_ATTEMPTS,
    Job,
    JobDeadlineExceeded,
    JobExecutionError,
    JobStore,
    execute_job,
    now_ms,
)
from repro.serve.protocol import SERVE_SCHEMA, JobRequest, RequestError, envelope

_LOG = get_logger("serve.server")

#: Environment default for the service state directory.
STATE_DIR_ENV = "REPRO_SERVE_STATE"

#: Seconds an idle keep-alive connection may sit before we close it.
_IDLE_TIMEOUT = 30.0

#: Largest request body we will read (a full sweep spec is ~KBs).
_MAX_BODY = 1 << 20

#: Seconds between SSE keep-alive comment frames on an idle stream.
_SSE_HEARTBEAT_S = 10.0

#: Seconds between progress-spool polls (snapshot-to-SSE latency cap).
_PROGRESS_POLL_S = 0.2

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def default_state_dir() -> Path:
    """Service state location: ``$REPRO_SERVE_STATE`` or the user cache."""
    import os

    env = os.environ.get(STATE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-serve"


@dataclass
class ServeConfig:
    """Everything ``repro serve`` lets an operator turn."""

    host: str = "127.0.0.1"
    port: int = 8023
    state_dir: Path | str | None = None
    queue_limit: int = 256
    tenant_quota: int = 64
    #: concurrent executor slots (jobs running simulations at once)
    executors: int = 2
    #: ceiling on a request's ``jobs`` fan-out width
    max_width: int = 2

    def resolved_state_dir(self) -> Path:
        return Path(self.state_dir) if self.state_dir else default_state_dir()


class SimulationServer:
    """One serving instance: registry, queue, executors."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        state = config.resolved_state_dir()
        self.store = JobStore(state / "jobs")
        self.results_journal = RunJournal(state / "results")
        self.admission = AdmissionController(
            queue_limit=config.queue_limit,
            tenant_quota=config.tenant_quota,
        )
        self.jobs: dict[str, Job] = {}
        self.running: set[str] = set()
        self.accepting = True
        self.port: int | None = None
        self.started_ms = now_ms()
        self._wake: asyncio.Event | None = None
        self._closed: asyncio.Event | None = None
        self._connections: set = set()
        self._request_wall = bus.histogram("serve.request_wall_us", unit="us")
        self._job_wall = bus.histogram("serve.job_wall_us", unit="us")
        self._queue_wait = bus.histogram("serve.queue_wait_us", unit="us")
        # live telemetry plane: SSE broker and progress spool tailer
        self.broker = EventBroker()
        self.progress_spool = state / "progress"
        self._tailer = SpoolTailer(self.progress_spool)

    # ------------------------------------------------------------------
    # lifecycle

    def recover(self) -> int:
        """Reload journaled jobs; requeue the unfinished ones."""
        unfinished, finished = self.store.recover()
        for job in finished:
            self.jobs[job.id] = job
        for job in reversed(unfinished):
            # reversed + requeue-at-front preserves submission order
            self.jobs[job.id] = job
            job.state = lifecycle.QUEUED
            self.admission.requeue(job)
            bus.counter("serve.recovered").add()
        if unfinished:
            log_event(
                _LOG,
                "recovered unfinished jobs from the journal",
                recovered=len(unfinished),
                finished=len(finished),
            )
        return len(unfinished)

    async def serve_forever(self) -> None:
        """Bind, recover, run executors, and serve until drained."""
        self._wake = asyncio.Event()
        self._closed = asyncio.Event()
        self.broker.bind(asyncio.get_running_loop())
        enable_spool(self.progress_spool)
        # skip what an earlier process spooled: its snapshots are not
        # this process's story, and would precede a recovered job's
        # synthetic terminal frame on its stream
        self._tailer.poll()
        recovered = self.recover()
        if recovered:
            self._wake.set()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        print(
            f"repro-serve: listening on {self.config.host}:{self.port} "
            f"(run {current_run_id()}, {recovered} jobs recovered)",
            flush=True,
        )
        executors = [
            asyncio.ensure_future(self._executor_loop(slot))
            for slot in range(max(1, self.config.executors))
        ]
        progress = asyncio.ensure_future(self._progress_loop())
        try:
            await self._closed.wait()
        finally:
            disable_spool()
            server.close()
            await server.wait_closed()
            tasks = (*executors, progress, *self._connections)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    def request_drain(self) -> None:
        """Stop accepting; the server exits once the backlog is done."""
        self.accepting = False
        self._maybe_close()
        if self._wake is not None:
            self._wake.set()

    def _maybe_close(self) -> None:
        if (
            not self.accepting
            and self.admission.depth == 0
            and not self.running
            and self._closed is not None
        ):
            self._closed.set()

    # ------------------------------------------------------------------
    # telemetry plane

    async def _progress_loop(self) -> None:
        """Tail the progress spool; republish snapshots as SSE events."""
        while True:
            self._pump_progress()
            await asyncio.sleep(_PROGRESS_POLL_S)

    def _pump_progress(self) -> int:
        """One spool poll; returns how many snapshots were published.

        Snapshots from fan-out workers carry the job id via the pool's
        ``progress_label`` initarg; in-process runs via the executor
        thread's ``progress_scope``. An unlabeled snapshot (a run
        started outside any scope) is attributed to the only running
        job when exactly one is running, else dropped.
        """
        published = 0
        for snapshot in self._tailer.poll():
            job_id = snapshot.get("job")
            if job_id is None and len(self.running) == 1:
                job_id = next(iter(self.running))
            if job_id is None or job_id not in self.jobs:
                continue
            self.broker.publish(job_id, "progress", snapshot)
            published += 1
        return published

    def _transition(self, job: Job, **extra) -> None:
        """Journal the job's current state and publish it as SSE."""
        self.store.save(job)
        data = {
            "job": job.id,
            "state": job.state,
            "tenant": job.tenant,
            "attempts": job.attempts,
            "ts_ms": now_ms(),
        }
        data.update(extra)
        self.broker.publish(job.id, "state", data)

    # ------------------------------------------------------------------
    # executors

    async def _executor_loop(self, slot: int) -> None:
        while True:
            # belt and braces with the cancellation in serve_forever:
            # a wait_for whose wake coincides with cancel can swallow
            # the CancelledError (bpo-42130), so check the close event
            if self._closed is not None and self._closed.is_set():
                return
            job = self.admission.next_job()
            if job is None:
                self._maybe_close()
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.25)
                except asyncio.TimeoutError:
                    pass
                continue
            await self._run_job(job, slot)

    async def _run_job(self, job: Job, slot: int) -> None:
        job.attempts += 1
        try:
            fault_point("serve.dispatch", detail=f"{job.id} {job.tenant}")
        except InjectedFault as fault:
            self._requeue_or_fail(job, f"dispatch fault: {fault}")
            return
        remaining = job.deadline_remaining()
        if remaining is not None and remaining <= 0:
            self._finish_expired(job, "deadline passed while queued")
            return
        try:
            request = job.request()
        except RequestError as error:
            self._finish_failed(job, {"type": "RequestError", "message": str(error)})
            return
        width = min(request.jobs, self.config.max_width)
        job.state = lifecycle.RUNNING
        self._transition(job, slot=slot)
        self.running.add(job.id)
        self._queue_wait.record((now_ms() - job.submitted_ms) * 1000.0)
        begun = time.monotonic()
        try:
            with span("serve.job", cat="serve", job=job.id, tenant=job.tenant,
                      slot=slot, attempt=job.attempts):
                work = asyncio.to_thread(
                    execute_job,
                    job,
                    self.results_journal,
                    jobs=width,
                )
                if remaining is not None:
                    summaries = await asyncio.wait_for(work, timeout=remaining)
                else:
                    summaries = await work
        except (JobDeadlineExceeded, asyncio.TimeoutError):
            self._finish_expired(job, "deadline exceeded while running")
            return
        except JobExecutionError as error:
            self._finish_failed(
                job,
                {
                    "type": "JobExecutionError",
                    "message": str(error),
                    "report": error.report,
                },
            )
            return
        except Exception as error:  # server bug — keep the job, not a 500
            log_event(
                _LOG,
                "unexpected executor failure",
                level=logging.ERROR,
                job=job.id,
                error=f"{type(error).__name__}: {error}",
            )
            self._requeue_or_fail(job, f"{type(error).__name__}: {error}")
            return
        finally:
            self.running.discard(job.id)
        # flush spooled snapshots now so every progress event precedes
        # the terminal state event on the job's SSE stream (the poll
        # task alone could publish them after the stream closed)
        self._pump_progress()
        try:
            fault_point("serve.result.publish", detail=f"{job.id} {job.tenant}")
        except InjectedFault as fault:
            # the work is in the results journal; re-running the job is
            # a cheap journal replay, so requeue rather than lose state
            self._requeue_or_fail(job, f"publish fault: {fault}")
            return
        job.state = lifecycle.DONE
        job.results = summaries
        job.finished_ms = now_ms()
        self._transition(job, results=len(summaries))
        self._job_wall.record((time.monotonic() - begun) * 1e6)
        bus.counter("serve.completed").add()
        self._maybe_close()

    def _requeue_or_fail(self, job: Job, cause: str) -> None:
        self.running.discard(job.id)
        if job.attempts >= MAX_JOB_ATTEMPTS:
            self._finish_failed(
                job,
                {"type": "RetriesExhausted", "message": cause,
                 "attempts": job.attempts},
            )
            return
        job.state = lifecycle.QUEUED
        self._transition(job, requeued=True, cause=cause)
        self.admission.requeue(job)
        bus.counter("serve.requeued").add()
        if self._wake is not None:
            self._wake.set()

    def _finish_expired(self, job: Job, message: str) -> None:
        self._pump_progress()
        self.running.discard(job.id)
        job.state = lifecycle.EXPIRED
        job.error = {"type": "DeadlineExceeded", "message": message}
        job.finished_ms = now_ms()
        self._transition(job, error="DeadlineExceeded")
        bus.counter("serve.expired").add()
        self._maybe_close()

    def _finish_failed(self, job: Job, error: dict) -> None:
        self._pump_progress()
        self.running.discard(job.id)
        job.state = lifecycle.FAILED
        job.error = error
        job.finished_ms = now_ms()
        self._transition(job, error=error.get("type", "Error"))
        bus.counter("serve.failed").add()
        self._maybe_close()

    # ------------------------------------------------------------------
    # HTTP plumbing

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout=_IDLE_TIMEOUT
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    ConnectionResetError,
                    asyncio.LimitOverrunError,
                ):
                    return
                method, path, headers = _parse_head(head)
                length = int(headers.get("content-length", "0") or "0")
                if length > _MAX_BODY:
                    await _respond(writer, 413, {"error": "body too large"})
                    return
                body = await reader.readexactly(length) if length else b""
                keep_alive = headers.get("connection", "").lower() != "close"
                begun = time.monotonic()
                if method == "GET" and path == "/metrics":
                    with span("serve.request", cat="serve", method=method,
                              path=path):
                        text = self._render_prometheus()
                    self._request_wall.record((time.monotonic() - begun) * 1e6)
                    await _respond_text(
                        writer, 200, text,
                        content_type=(
                            "text/plain; version=0.0.4; charset=utf-8"
                        ),
                        keep_alive=keep_alive,
                    )
                    if not keep_alive:
                        return
                    continue
                if (method == "GET" and path.startswith("/v1/jobs/")
                        and path.endswith("/events")):
                    # SSE: the response has no Content-Length and holds
                    # the connection; always closes when the stream ends
                    await self._stream_events(writer, path)
                    return
                with span("serve.request", cat="serve", method=method, path=path):
                    status, doc, extra = self._route(method, path, body)
                self._request_wall.record((time.monotonic() - begun) * 1e6)
                await _respond(writer, status, doc, extra, keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, ValueError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    def _route(self, method: str, path: str, body: bytes):
        """Dispatch one request; returns (status, json_doc, extra_headers)."""
        if path == "/v1/jobs" and method == "POST":
            return self._submit(body)
        if (path.startswith("/v1/jobs/") and path.endswith("/spans")
                and method == "GET"):
            return self._get_spans(path[len("/v1/jobs/"):-len("/spans")])
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._get_job(path[len("/v1/jobs/"):])
        if path == "/v1/jobs" and method == "GET":
            return 200, self._registry_summary(), {}
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "run_id": current_run_id(),
                         "uptime_ms": now_ms() - self.started_ms}, {}
        if path == "/readyz" and method == "GET":
            doc = {
                "ready": self.accepting,
                "draining": not self.accepting,
                "queue_depth": self.admission.depth,
                "running": len(self.running),
            }
            return (200 if self.accepting else 503), doc, {}
        if path == "/v1/drain" and method == "POST":
            self.request_drain()
            return 200, {"draining": True,
                         "queued": self.admission.depth,
                         "running": len(self.running)}, {}
        if path in ("/v1/jobs", "/v1/drain", "/healthz", "/readyz",
                    "/metrics") or path.startswith("/v1/jobs/"):
            return 405, {"error": f"{method} not allowed on {path}"}, {}
        return 404, {"error": f"no route for {path}"}, {}

    # ------------------------------------------------------------------
    # handlers

    def _submit(self, body: bytes):
        try:
            fault_point("serve.accept", detail="submit")
        except InjectedFault as fault:
            bus.counter("serve.rejected").add()
            return 503, {
                "schema": SERVE_SCHEMA,
                "error": {"type": "InjectedFault", "message": str(fault)},
                "retryable": True,
            }, {"Retry-After": "1"}
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            request = JobRequest.from_payload(payload)
        except RequestError as error:
            return 400, {"schema": SERVE_SCHEMA,
                         "error": {"type": "RequestError",
                                   "message": str(error)}}, {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"schema": SERVE_SCHEMA,
                         "error": {"type": "RequestError",
                                   "message": f"invalid JSON body: {error}"}}, {}
        existing = self.jobs.get(request.id)
        if existing is not None:
            # idempotent resubmission: report, never double-run
            return 200, envelope(existing), {}
        if not self.accepting:
            bus.counter("serve.rejected").add()
            return 503, {
                "schema": SERVE_SCHEMA,
                "error": {"type": "Draining",
                          "message": "server is draining; resubmit elsewhere"},
                "retryable": True,
            }, {"Retry-After": "5"}
        job = Job.from_request(request)
        decision = self.admission.try_admit(job)
        if not decision.admitted:
            bus.counter("serve.rejected").add()
            return 429, {
                "schema": SERVE_SCHEMA,
                "error": {"type": "Saturated", "message": decision.reason},
                "retryable": True,
                "retry_after_s": decision.retry_after,
            }, {"Retry-After": str(decision.retry_after)}
        # journal BEFORE acknowledging: the 202 is a durability promise
        self._transition(job)
        self.jobs[job.id] = job
        bus.counter("serve.accepted").add()
        if self._wake is not None:
            self._wake.set()
        return 202, envelope(job), {}

    def _get_job(self, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"schema": SERVE_SCHEMA,
                         "error": {"type": "UnknownJob",
                                   "message": f"no job {job_id!r}"}}, {}
        return 200, envelope(job), {}

    def _registry_summary(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "schema": SERVE_SCHEMA,
            "jobs": len(self.jobs),
            "states": states,
            "queue_depth": self.admission.depth,
            "tenants": self.admission.tenants(),
        }

    def _render_prometheus(self) -> str:
        """The ``/metrics`` scrape body (text exposition v0.0.4)."""
        counters = bus.snapshot()
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        gauges = {
            "serve.queue_depth": self.admission.depth,
            "serve.running": len(self.running),
            "serve.jobs_known": len(self.jobs),
            "serve.accepting": 1 if self.accepting else 0,
            "serve.uptime_seconds": (now_ms() - self.started_ms) / 1000.0,
            "serve.job_states": [
                ({"state": state}, count)
                for state, count in sorted(states.items())
            ],
            "serve.tenant_queue_depth": [
                ({"tenant": tenant}, depth)
                for tenant, depth in sorted(self.admission.tenants().items())
            ],
        }
        return render_prometheus(
            counters=counters,
            gauges=gauges,
            histograms=dict(bus.registry().histograms()),
            info={"run_id": current_run_id()},
        )

    def _get_spans(self, job_id: str):
        """The job's merged span slice from the active tracer."""
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"schema": SERVE_SCHEMA,
                         "error": {"type": "UnknownJob",
                                   "message": f"no job {job_id!r}"}}, {}
        tracer = active_tracer()
        if tracer is None:
            return 200, {
                "schema": SERVE_SCHEMA,
                "job": job_id,
                "spans": [],
                "note": "tracing disabled; start the server with "
                        "tracing enabled to record spans",
            }, {}
        events = list(tracer.events) + tracer.collect_shards()
        # seed: spans tagged with this job id; then close over parent
        # links so the slice includes the job's whole subtree
        keep: set[str] = set()
        for event in events:
            args = event.get("args") or {}
            if args.get("job") == job_id and args.get("span"):
                keep.add(args["span"])
        grew = True
        while grew:
            grew = False
            for event in events:
                args = event.get("args") or {}
                span_id = args.get("span")
                if span_id and span_id not in keep and args.get("parent") in keep:
                    keep.add(span_id)
                    grew = True
        spans = [
            event for event in events
            if (event.get("args") or {}).get("span") in keep
        ]
        spans.sort(key=lambda e: (e.get("ts", 0.0), e.get("pid", 0)))
        return 200, {
            "schema": SERVE_SCHEMA,
            "job": job_id,
            "run_id": tracer.run_id,
            "spans": spans,
        }, {}

    # ------------------------------------------------------------------
    # SSE streaming

    async def _stream_events(self, writer, path: str) -> None:
        """Serve one job's ``text/event-stream`` until terminal/EOF.

        Replays the job's ring (the story so far), then forwards live
        events; heartbeats as comment frames keep the connection alive
        through idle stretches. The stream ends after a terminal
        ``state`` event, when the client disconnects, or when the
        server shuts down (the connection task is cancelled).
        """
        channel = path[len("/v1/jobs/"):-len("/events")]
        if channel not in self.jobs:
            await _respond(
                writer, 404,
                {"schema": SERVE_SCHEMA,
                 "error": {"type": "UnknownJob",
                           "message": f"no job {channel!r}"}},
                keep_alive=False,
            )
            return
        queue, replay = self.broker.subscribe(channel)
        bus.counter("serve.sse.streams").add()
        try:
            writer.write((
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("latin-1"))
            terminal = False
            for event_id, event, data in replay:
                writer.write(format_event(event_id, event, data))
                terminal = terminal or _is_terminal_event(event, data)
            # a job that finished before this process started has an
            # empty ring; its stream still must end with a state event
            job = self.jobs[channel]
            if not terminal and job.state in lifecycle.TERMINAL_STATES:
                writer.write(format_event(
                    self.broker.last_id(channel), "state",
                    {"job": job.id, "state": job.state,
                     "tenant": job.tenant, "attempts": job.attempts,
                     "ts_ms": now_ms()},
                ))
                terminal = True
            await writer.drain()
            while not terminal:
                try:
                    event_id, event, data = await asyncio.wait_for(
                        queue.get(), timeout=_SSE_HEARTBEAT_S
                    )
                except asyncio.TimeoutError:
                    writer.write(format_comment())
                    await writer.drain()
                    continue
                writer.write(format_event(event_id, event, data))
                await writer.drain()
                terminal = _is_terminal_event(event, data)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.broker.unsubscribe(channel, queue)


# ----------------------------------------------------------------------
# HTTP helpers


def _is_terminal_event(event: str, data: dict) -> bool:
    """Whether this event ends a job's stream."""
    return event == "state" and data.get("state") in lifecycle.TERMINAL_STATES


def _parse_head(head: bytes):
    """Parse request line + headers from one ``\\r\\n\\r\\n`` block."""
    text = head.decode("latin-1")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    path = target.split("?", 1)[0]
    return method.upper(), path, headers


async def _respond_text(writer, status: int, text: str,
                        content_type: str = "text/plain; charset=utf-8",
                        keep_alive: bool = True) -> None:
    """Write a plain-text response (the Prometheus scrape body)."""
    body = text.encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


async def _respond(writer, status: int, doc, extra: dict | None = None,
                   keep_alive: bool = True) -> None:
    body = json.dumps(doc).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra or {}).items():
        headers.append(f"{name}: {value}")
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


def run(config: ServeConfig) -> int:
    """Synchronous entrypoint: serve until drained or interrupted."""
    server = SimulationServer(config)
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:
        print("repro-serve: interrupted; journaled jobs will resume on restart")
    return 0
