#!/usr/bin/env python
"""Load generator and chaos harness for ``repro serve``.

Two modes over the same asyncio client:

* **Load** (default): drive ``--requests N`` small simulation jobs at a
  fixed concurrency budget against a server this script spawns (or an
  existing one via ``--host/--port``), measure submit latency and
  end-to-end job wall percentiles plus completed-job throughput, and
  print them. It gates on every job finishing ``done``; the numbers are
  informational. The repository benchmark (``python -m bench run``,
  workload ``serve-mixed``) is what times the service.

* **Chaos** (``--chaos``): same load, but the server is ``kill -9``-ed
  once ~30% of the jobs have finished, then restarted on the same port
  and state directory — with span tracing on. The harness then proves
  the crash-safety contract end to end: every acknowledged job reaches
  ``done`` (zero lost), resubmitting every job id returns the already
  finished envelope unchanged (zero duplicated), the server drains
  cleanly, and the trace the restarted instance wrote passes ``repro
  inspect --check``.

* **Telemetry** (``--telemetry``, composes with load): after the load,
  submit one deliberately long job, tail its ``/v1/jobs/<id>/events``
  SSE stream live, and measure first-event latency plus the cadence of
  mid-run progress snapshots. The probe asserts the streaming contract
  — at least one ``progress`` event and the terminal ``state`` event
  arrive on the stream *before* the envelope is fetched — validates the
  captured events against the ``repro.progress/v1`` schema, and scrapes
  ``/metrics`` through the strict Prometheus parser (native ``_bucket``
  histogram series included).

Jobs reuse a small pool of distinct run specs (``--distinct``), so the
content-addressed results journal turns most executions into replays —
which is exactly the deployment story: many clients asking overlapping
questions, one simulation per distinct question.

Usage::

    PYTHONPATH=src python scripts/serve_load.py --requests 1000
    PYTHONPATH=src python scripts/serve_load.py --chaos --requests 60
    PYTHONPATH=src python scripts/serve_load.py --requests 40 --telemetry
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# minimal asyncio HTTP/JSON client (Connection: close per request)


class ServerGone(RuntimeError):
    """The server refused or dropped the connection (mid-chaos)."""


async def http_json(host: str, port: int, method: str, path: str,
                    doc=None, timeout: float = 60.0):
    """One HTTP/JSON exchange; returns ``(status, decoded_body)``."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as error:
        raise ServerGone(f"connect {host}:{port}: {error}") from None
    try:
        body = json.dumps(doc).encode() if doc is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    except (OSError, asyncio.IncompleteReadError) as error:
        raise ServerGone(f"{method} {path}: {error}") from None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    if not raw:
        raise ServerGone(f"{method} {path}: empty response")
    try:
        status = int(raw.split(b" ", 2)[1])
        payload = raw.split(b"\r\n\r\n", 1)[1]
        return status, json.loads(payload or b"null")
    except (IndexError, ValueError) as error:
        raise ServerGone(f"{method} {path}: bad response: {error}") from None


# ----------------------------------------------------------------------
# server management


def free_port() -> int:
    """A port the OS just handed out (both instances reuse it)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_server(port: int, state_dir: str, executors: int,
                 queue_limit: int, trace_out: str | None = None,
                 progress_every_ms: int | None = None):
    """Start ``repro serve`` and wait for its listening line."""
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--port", str(port),
        "--state-dir", state_dir,
        "--executors", str(executors),
        "--queue-limit", str(queue_limit),
    ]
    if trace_out:
        argv += ["--trace-out", trace_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if progress_every_ms is not None:
        env["REPRO_PROGRESS_EVERY_MS"] = str(progress_every_ms)
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited during startup (rc={proc.poll()})"
            )
        if "listening on" in line:
            return proc
    raise SystemExit("server never reported its listening address")


# ----------------------------------------------------------------------
# load


def job_payload(index: int, distinct: int, tenants: int) -> dict:
    """One small job; specs repeat every ``distinct`` jobs (dedupe)."""
    return {
        "id": f"load-{index}",
        "tenant": f"tenant-{index % max(1, tenants)}",
        "runs": [{
            "app": "BFS",
            "policy": "pcc",
            "graph_scale": 8,
            "proxy_accesses": 2000,
            "seed": index % max(1, distinct),
        }],
    }


async def drive_job(host, port_ref, index, args, stats, semaphore):
    """Submit one job (retrying 429/holes), then poll it to terminal."""
    async with semaphore:
        payload = job_payload(index, args.distinct, args.tenants)
        submitted = None
        begun = time.monotonic()
        while True:
            try:
                t0 = time.monotonic()
                status, doc = await http_json(
                    host, port_ref[0], "POST", "/v1/jobs", payload
                )
            except ServerGone:
                await asyncio.sleep(0.2)
                continue
            if status in (202, 200):
                stats["submit_ms"].append((time.monotonic() - t0) * 1e3)
                submitted = time.monotonic()
                break
            if status == 429:
                stats["rejected_429"] += 1
                await asyncio.sleep(min(2.0, float(
                    doc.get("retry_after_s") or 1)))
                continue
            if status == 503:
                stats["rejected_503"] += 1
                await asyncio.sleep(0.3)
                continue
            raise SystemExit(f"unexpected submit status {status}: {doc}")
        while True:
            try:
                status, doc = await http_json(
                    host, port_ref[0], "GET", f"/v1/jobs/load-{index}"
                )
            except ServerGone:
                await asyncio.sleep(0.2)
                continue
            if status == 404:
                # the 202 predates a crash the journal absorbed; the
                # restarted server must re-learn it from our resubmit
                stats["resubmitted"] += 1
                return await _resubmit(host, port_ref, index, args, stats,
                                       begun)
            state = doc["job"]["state"]
            if state in ("done", "failed", "expired"):
                stats["states"][state] = stats["states"].get(state, 0) + 1
                stats["job_wall_ms"].append(
                    (time.monotonic() - submitted) * 1e3)
                if doc["degraded"]:
                    stats["degraded_jobs"] += 1
                return state
            await asyncio.sleep(args.poll_interval)


async def _resubmit(host, port_ref, index, args, stats, begun):
    payload = job_payload(index, args.distinct, args.tenants)
    while True:
        try:
            status, doc = await http_json(
                host, port_ref[0], "POST", "/v1/jobs", payload
            )
        except ServerGone:
            await asyncio.sleep(0.2)
            continue
        if status in (200, 202):
            break
        await asyncio.sleep(0.3)
    while True:
        try:
            status, doc = await http_json(
                host, port_ref[0], "GET", f"/v1/jobs/load-{index}"
            )
        except ServerGone:
            await asyncio.sleep(0.2)
            continue
        if status == 200 and doc["job"]["state"] in ("done", "failed",
                                                     "expired"):
            state = doc["job"]["state"]
            stats["states"][state] = stats["states"].get(state, 0) + 1
            stats["job_wall_ms"].append((time.monotonic() - begun) * 1e3)
            return state
        await asyncio.sleep(args.poll_interval)


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def summarize(values) -> dict:
    return {
        "p50_ms": round(percentile(values, 0.50), 2),
        "p90_ms": round(percentile(values, 0.90), 2),
        "p99_ms": round(percentile(values, 0.99), 2),
        "max_ms": round(max(values), 2) if values else 0.0,
    }


async def run_load(args, host, port_ref, stats, chaos_hook=None):
    semaphore = asyncio.Semaphore(args.concurrency)
    begun = time.monotonic()
    tasks = [
        asyncio.ensure_future(
            drive_job(host, port_ref, index, args, stats, semaphore))
        for index in range(args.requests)
    ]
    if chaos_hook is not None:
        tasks.append(asyncio.ensure_future(chaos_hook()))
    results = await asyncio.gather(*tasks)
    stats["wall_s"] = time.monotonic() - begun
    return results


# ----------------------------------------------------------------------
# chaos


async def chaos_controller(args, host, port_ref, stats, server_box,
                           state_dir, trace_out):
    """Kill -9 at ~30% completion, restart on the same port, tracing."""
    target = max(1, int(args.requests * 0.3))
    while True:
        done = sum(stats["states"].values())
        if done >= target:
            break
        await asyncio.sleep(0.1)
    proc = server_box[0]
    print(f"chaos: {sum(stats['states'].values())}/{args.requests} done; "
          f"kill -9 pid {proc.pid}", flush=True)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    stats["killed_at"] = sum(stats["states"].values())
    await asyncio.sleep(0.5)
    server_box[0] = spawn_server(
        port_ref[0], state_dir, args.executors, args.queue_limit,
        trace_out=trace_out, progress_every_ms=args.progress_every_ms,
    )
    print("chaos: server restarted (tracing on)", flush=True)


async def assert_no_duplicates(args, host, port_ref, sample: int = 0):
    """Resubmitting every finished id must return it unchanged."""
    count = sample or args.requests
    duplicated = 0
    for index in range(count):
        status, before = await http_json(
            host, port_ref[0], "GET", f"/v1/jobs/load-{index}")
        payload = job_payload(index, args.distinct, args.tenants)
        status, resubmit = await http_json(
            host, port_ref[0], "POST", "/v1/jobs", payload)
        if status != 200:
            duplicated += 1
            continue
        if (resubmit["job"]["state"] != before["job"]["state"]
                or resubmit["job"]["finished_ms"]
                != before["job"]["finished_ms"]):
            duplicated += 1
    return duplicated


# ----------------------------------------------------------------------
# telemetry probe (SSE streaming + Prometheus exposition)


def telemetry_probe(args, host: str, port: int) -> int:
    """Tail one live job's SSE stream and scrape ``/metrics``.

    Returns a non-zero status if any streaming-contract assertion failed.
    """
    import http.client
    import threading

    sys.path.insert(0, str(REPO / "src"))
    from repro.metrics.prometheus import parse_exposition
    from repro.obs import inspect as inspect_module
    from repro.serve.events import TERMINAL_STATES, read_events

    status = 0
    job_id = "telem-0"
    payload = {
        "id": job_id,
        "tenant": "telemetry",
        "runs": [{
            "app": "BFS",
            "policy": "pcc",
            "graph_scale": 8,
            # long enough to cross several progress cadences, and a
            # spec the load phase never submits, so the results journal
            # cannot short-circuit it into a no-progress replay
            "proxy_accesses": 200_000,
            "seed": int(time.time()) % 100_000,
        }],
    }

    events: list[tuple[float, dict]] = []
    stream_error: list[str] = []

    def tail() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=180)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                stream_error.append(f"SSE stream: HTTP {response.status}")
                return
            for event in read_events(response):
                events.append((time.monotonic(), event))
                data = event.get("data", {})
                if (event.get("event") == "state"
                        and data.get("state") in TERMINAL_STATES):
                    return
            stream_error.append("SSE stream closed before a terminal state")
        except OSError as error:
            stream_error.append(f"SSE stream: {error}")
        finally:
            conn.close()

    async def submit() -> float:
        while True:
            code, doc = await http_json(host, port, "POST", "/v1/jobs",
                                        payload)
            if code == 202:
                return time.monotonic()
            if code in (429, 503):
                await asyncio.sleep(0.3)
                continue
            raise SystemExit(f"telemetry submit: HTTP {code}: {doc}")

    submitted = asyncio.run(submit())
    tailer = threading.Thread(target=tail, daemon=True)
    tailer.start()
    tailer.join(timeout=180)

    # the stream delivered everything (or died) before this envelope
    # fetch — the ordering the acceptance criterion pins
    code, envelope = asyncio.run(
        http_json(host, port, "GET", f"/v1/jobs/{job_id}"))

    progress_times = [t for t, e in events if e.get("event") == "progress"]
    terminal = next(
        (e.get("data", {}).get("state") for _, e in events
         if e.get("event") == "state"
         and e.get("data", {}).get("state") in TERMINAL_STATES),
        None,
    )
    for problem in stream_error:
        print(f"telemetry FAILED: {problem}", file=sys.stderr)
        status = 1
    if not events:
        print("telemetry FAILED: no SSE events at all", file=sys.stderr)
        status = 1
    if not progress_times:
        print("telemetry FAILED: no mid-run progress events on the stream",
              file=sys.stderr)
        status = 1
    if terminal is None:
        print("telemetry FAILED: no terminal state event on the stream",
              file=sys.stderr)
        status = 1
    elif terminal != envelope.get("job", {}).get("state"):
        print(f"telemetry FAILED: stream said {terminal!r} but the envelope "
              f"says {envelope.get('job', {}).get('state')!r}",
              file=sys.stderr)
        status = 1

    schema_errors = inspect_module.validate_events(
        {"events": [e for _, e in events]})
    if schema_errors:
        for problem in schema_errors[:5]:
            print(f"telemetry FAILED: event schema: {problem}",
                  file=sys.stderr)
        status = 1

    first_event_ms = (
        round((events[0][0] - submitted) * 1e3, 1) if events else None)
    first_progress_ms = (
        round((progress_times[0] - submitted) * 1e3, 1)
        if progress_times else None)

    # scrape the native exposition through the strict parser
    families = {}
    try:
        code, text = asyncio.run(_http_text(host, port, "/metrics"))
        if code != 200:
            raise ValueError(f"HTTP {code}")
        families = parse_exposition(text)
    except (ServerGone, ValueError) as error:
        print(f"telemetry FAILED: /metrics scrape: {error}", file=sys.stderr)
        status = 1
    histogram_families = [
        name for name, family in families.items()
        if family.get("type") == "histogram"
    ]
    if families and not histogram_families:
        print("telemetry FAILED: /metrics has no histogram (_bucket) family",
              file=sys.stderr)
        status = 1

    print(
        f"telemetry: {len(events)} events ({len(progress_times)} progress), "
        f"first event {first_event_ms}ms, first progress "
        f"{first_progress_ms}ms, terminal {terminal}; /metrics: "
        f"{len(families)} families, {len(histogram_families)} histograms"
    )
    return status


async def _http_text(host: str, port: int, path: str,
                     timeout: float = 30.0) -> tuple[int, str]:
    """One GET returning the raw body as text (for ``/metrics``)."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as error:
        raise ServerGone(f"connect {host}:{port}: {error}") from None
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    except OSError as error:
        raise ServerGone(f"GET {path}: {error}") from None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body.decode("utf-8", "replace")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=1000,
                        help="jobs to drive (default 1000)")
    parser.add_argument("--concurrency", type=int, default=128,
                        help="concurrent in-flight jobs (default 128)")
    parser.add_argument("--distinct", type=int, default=32,
                        help="distinct run specs across the job stream "
                        "(smaller = more journal dedupe; default 32)")
    parser.add_argument("--tenants", type=int, default=8,
                        help="tenants to spread jobs over (default 8)")
    parser.add_argument("--executors", type=int, default=4,
                        help="server executor slots (default 4)")
    parser.add_argument("--queue-limit", type=int, default=4096,
                        help="server queue ceiling (default 4096)")
    parser.add_argument("--poll-interval", type=float, default=0.05,
                        help="seconds between job polls (default 0.05)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="drive an already-running server instead of "
                        "spawning one")
    parser.add_argument("--state-dir", default=None,
                        help="state directory for the spawned server "
                        "(default: a fresh temp dir)")
    parser.add_argument("--chaos", action="store_true",
                        help="kill -9 the server at ~30%% completion, "
                        "restart it, and verify zero lost/duplicated jobs "
                        "plus a clean inspected trace")
    parser.add_argument("--telemetry", action="store_true",
                        help="after the load, tail one live job's SSE "
                        "stream (first-event latency, progress cadence) "
                        "and scrape /metrics through the strict parser")
    parser.add_argument("--progress-every-ms", type=int, default=None,
                        help="progress snapshot cadence for the spawned "
                        "server (default: 100 with --telemetry, else the "
                        "server default)")
    args = parser.parse_args()
    if args.progress_every_ms is None and args.telemetry:
        args.progress_every_ms = 100

    stats = {
        "submit_ms": [], "job_wall_ms": [], "states": {},
        "rejected_429": 0, "rejected_503": 0, "resubmitted": 0,
        "degraded_jobs": 0,
    }
    host = args.host
    external = args.port is not None
    port = args.port if external else free_port()
    port_ref = [port]
    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-serve-load-")
    trace_out = str(Path(state_dir) / "serve-trace.json")
    server_box = [None]
    if not external:
        # the first instance runs untraced; in chaos mode the restarted
        # instance traces, and its trace is what inspect --check gates
        server_box[0] = spawn_server(
            port, state_dir, args.executors, args.queue_limit,
            progress_every_ms=args.progress_every_ms,
        )

    async def drive():
        chaos_hook = None
        if args.chaos:
            if external:
                raise SystemExit("--chaos needs a script-managed server")

            def hook():
                return chaos_controller(args, host, port_ref, stats,
                                        server_box, state_dir, trace_out)
            chaos_hook = hook
        await run_load(args, host, port_ref, stats, chaos_hook=chaos_hook)
        if args.chaos:
            return await assert_no_duplicates(args, host, port_ref)
        return None

    duplicated = asyncio.run(drive())

    # the telemetry probe needs the server still up (it runs its own
    # event loops + a blocking SSE tail thread), so it goes between the
    # load and the drain
    telemetry_status = 0
    if args.telemetry:
        telemetry_status = telemetry_probe(args, host, port_ref[0])

    if not external:
        async def drain():
            try:
                await http_json(host, port_ref[0], "POST", "/v1/drain")
            except ServerGone:
                pass
        asyncio.run(drain())

    if server_box[0] is not None:
        try:
            server_box[0].wait(timeout=60)
        except subprocess.TimeoutExpired:
            server_box[0].kill()
            raise SystemExit("server failed to drain within 60s")

    finished = sum(stats["states"].values())
    lost = args.requests - finished
    done = stats["states"].get("done", 0)
    throughput = finished / stats["wall_s"] if stats.get("wall_s") else 0.0
    print(
        f"serve load: {finished}/{args.requests} jobs finished "
        f"({done} done) in {stats['wall_s']:.1f}s "
        f"= {throughput:.1f} jobs/s at concurrency {args.concurrency}"
    )
    print(f"  submit   {summarize(stats['submit_ms'])}")
    print(f"  job wall {summarize(stats['job_wall_ms'])}")
    print(f"  backpressure: {stats['rejected_429']}x 429, "
          f"{stats['rejected_503']}x 503, "
          f"{stats['resubmitted']} post-crash resubmits")

    status = telemetry_status
    if lost:
        print(f"serve load FAILED: {lost} jobs lost", file=sys.stderr)
        status = 1
    if stats["states"].get("failed") or stats["states"].get("expired"):
        print(f"serve load FAILED: non-done terminal states "
              f"{stats['states']}", file=sys.stderr)
        status = 1
    if args.chaos:
        print(f"chaos: killed at {stats.get('killed_at')} done, "
              f"duplicated={duplicated}")
        if duplicated:
            print(f"serve chaos FAILED: {duplicated} duplicated jobs",
                  file=sys.stderr)
            status = 1
        trace = Path(trace_out)
        if trace.exists():
            check = subprocess.run(
                [sys.executable, "-m", "repro", "inspect", "--check",
                 str(trace)],
                env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                capture_output=True, text=True,
            )
            print(f"inspect --check {trace.name}: rc={check.returncode}")
            if check.returncode != 0:
                print(check.stdout + check.stderr, file=sys.stderr)
                status = 1
        else:
            print("serve chaos FAILED: restarted server wrote no trace",
                  file=sys.stderr)
            status = 1

    if status == 0:
        print("serve load OK")
    return status


if __name__ == "__main__":
    sys.exit(main())
