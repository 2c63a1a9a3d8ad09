"""``repro top`` / ``repro progress`` — terminal telemetry clients.

A curses-free live dashboard over the serving daemon's telemetry
plane: ``repro top`` polls the JSON registry (``GET /v1/jobs``) and
the Prometheus exposition (``GET /metrics``, read through
:func:`~repro.metrics.prometheus.parse_exposition`) and repaints an
ANSI screen (progress bars per running job, queue depth, tenant
backlogs, 1m rates); ``repro progress <job-id>`` tails one job's SSE
stream and prints each progress snapshot and state transition as a
line, resuming with ``Last-Event-ID`` across reconnects.

Rendering is split from transport: :func:`render_dashboard` and
:func:`render_progress_line` are pure string functions over plain
dicts, so the test suite exercises layout without sockets, and the
fetch layer is a tiny ``http.client`` wrapper (stdlib only, matching
the server's dependency stance).
"""

from __future__ import annotations

import http.client
import json
import sys
import time
from urllib.parse import urlsplit

from repro.metrics.prometheus import parse_exposition
from repro.serve.events import TERMINAL_STATES, read_events

#: ANSI: home the cursor and clear to end of screen (repaint in place).
CLEAR = "\x1b[H\x1b[J"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RESET = "\x1b[0m"
_STATE_COLOR = {
    "running": "\x1b[36m", "done": "\x1b[32m",
    "failed": "\x1b[31m", "expired": "\x1b[33m",
}

#: Prometheus name prefix and suffix of the serving counters' windowed
#: rates (``repro_resilience_serve_<name>_per_second{window=...}``).
_RATE_PREFIX = "repro_resilience_serve_"
_RATE_SUFFIX = "_per_second"


def split_url(url: str) -> tuple[str, int]:
    """``host:port`` from a server URL (scheme optional)."""
    if "//" not in url:
        url = "http://" + url
    parts = urlsplit(url)
    return parts.hostname or "127.0.0.1", parts.port or 8023


def fetch(host: str, port: int, path: str, timeout: float = 10.0) -> str:
    """One GET returning the response body as text."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    if response.status != 200 and response.status != 503:
        raise RuntimeError(f"GET {path}: HTTP {response.status}")
    return body.decode("utf-8")


def progress_bar(pct: float | None, width: int = 24) -> str:
    """``[#####....] 42.0%`` — or a spinner-less unknown marker."""
    if pct is None:
        return "[" + "?" * width + "]   ?.?%"
    pct = max(0.0, min(100.0, pct))
    filled = int(width * pct / 100.0)
    return f"[{'#' * filled}{'.' * (width - filled)}] {pct:5.1f}%"


def _colored_state(state: str) -> str:
    color = _STATE_COLOR.get(state, "")
    return f"{color}{state}{_RESET}" if color else state


def _samples(families: dict, name: str) -> list:
    return (families.get(name) or {}).get("samples", [])


def render_dashboard(registry: dict, families: dict, *, ansi: bool = True) -> str:
    """The full ``repro top`` frame.

    ``registry`` is the ``GET /v1/jobs`` JSON document; ``families`` is
    ``GET /metrics`` as parsed by
    :func:`~repro.metrics.prometheus.parse_exposition`, the source of
    the run id, the running count and the 1m rates. With
    ``ansi=False`` the frame carries no escape codes (tests, logs).
    """
    bold, dim, reset = (_BOLD, _DIM, _RESET) if ansi else ("", "", "")

    def state_of(name: str) -> str:
        return _colored_state(name) if ansi else name

    info = _samples(families, "repro_serve_info")
    run_id = info[0][1].get("run_id", "?") if info else "?"
    running = _samples(families, "repro_serve_running")
    lines = [
        f"{bold}repro top{reset} — run {run_id}   "
        f"queue {registry.get('queue_depth', 0)}   "
        f"running {int(running[0][2]) if running else 0}",
        "",
    ]

    states = registry.get("states", {})
    if states:
        summary = "  ".join(
            f"{state_of(name)}:{count}" for name, count in sorted(states.items())
        )
        lines.append(f"jobs: {registry.get('jobs', 0)}   {summary}")
    tenants = registry.get("tenants", {})
    if tenants:
        backlog = "  ".join(
            f"{tenant}:{depth}" for tenant, depth in sorted(tenants.items())
        )
        lines.append(f"tenant backlog: {backlog}")

    detail = registry.get("running_detail", [])
    lines.append("")
    lines.append(f"{bold}running jobs{reset}")
    if not detail:
        lines.append(f"  {dim}(idle){reset}")
    for entry in detail:
        progress = entry.get("progress") or {}
        bar = progress_bar(progress.get("pct"))
        tier = progress.get("tier") or "?"
        rate = progress.get("rate_rps")
        eta = progress.get("eta_s")
        rate_txt = f"{rate / 1e6:.2f}M rec/s" if rate else ""
        eta_txt = f"eta {eta:.0f}s" if eta else ""
        lines.append(
            f"  {entry.get('id', '?'):<20} {bar}  "
            f"{tier:<8} {rate_txt:<14} {eta_txt}"
        )

    interesting = {
        name.removeprefix(_RATE_PREFIX).removesuffix(_RATE_SUFFIX): value
        for name, family in families.items()
        if name.startswith(_RATE_PREFIX) and name.endswith(_RATE_SUFFIX)
        for _, labels, value in family["samples"]
        if labels.get("window") == "1m" and value > 0
    }
    if interesting:
        rate_txt = "  ".join(
            f"{name}:{value:g}/s" for name, value in sorted(interesting.items())
        )
        lines.append("")
        lines.append(f"{bold}1m rates{reset}  {rate_txt}")

    lines.append("")
    lines.append(f"{dim}ctrl-c to exit{reset}")
    return "\n".join(lines)


def render_progress_line(event: dict, *, ansi: bool = True) -> str:
    """One ``repro progress`` output line for an SSE event dict."""
    kind = event.get("event")
    data = event.get("data", {})
    if kind == "progress":
        total = data.get("records_total") or 0
        done = data.get("records_done") or 0
        pct = 100.0 * done / total if total else None
        bar = progress_bar(pct, width=30)
        rate = data.get("rate_rps") or 0
        eta = data.get("eta_s")
        eta_txt = f" eta {eta:.0f}s" if eta else ""
        return (
            f"{bar}  {data.get('tier', '?'):<8} "
            f"{rate / 1e6:6.2f}M rec/s{eta_txt}"
        )
    if kind == "state":
        state = data.get("state", "?")
        label = _colored_state(state) if ansi else state
        extra = ""
        if data.get("error"):
            extra = f" ({data['error']})"
        return f"-- {label}{extra}"
    return f"-- {kind}: {json.dumps(data)[:100]}"


def run_top(
    url: str,
    interval_s: float = 1.0,
    once: bool = False,
    iterations: int | None = None,
    out=None,
) -> int:
    """Poll-and-repaint loop behind ``repro top``."""
    out = out or sys.stdout
    host, port = split_url(url)
    painted = 0
    while True:
        try:
            registry = json.loads(fetch(host, port, "/v1/jobs"))
            families = parse_exposition(fetch(host, port, "/metrics"))
        except (OSError, RuntimeError, ValueError) as error:
            print(f"repro top: {url}: {error}", file=sys.stderr)
            return 1
        ansi = not once and out.isatty()
        frame = render_dashboard(registry, families, ansi=ansi)
        if ansi:
            out.write(CLEAR)
        out.write(frame + "\n")
        out.flush()
        painted += 1
        if once or (iterations is not None and painted >= iterations):
            return 0
        time.sleep(interval_s)


def run_progress(job_id: str, url: str, out=None, timeout_s: float = 600.0) -> int:
    """Tail one job's SSE stream until a terminal state (``repro
    progress``). Reconnects with ``Last-Event-ID`` on a dropped
    connection; exits 0 on ``done``, 1 on ``failed``/``expired`` or
    timeout."""
    out = out or sys.stdout
    host, port = split_url(url)
    last_id: int | None = None
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        headers = {}
        if last_id is not None:
            headers["Last-Event-ID"] = str(last_id)
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events", headers=headers)
            response = conn.getresponse()
            if response.status != 200:
                body = response.read()
                print(f"repro progress: HTTP {response.status}: "
                      f"{body.decode('utf-8', 'replace')[:200]}",
                      file=sys.stderr)
                return 1
            for event in read_events(response):
                if event.get("id") is not None:
                    last_id = event["id"]
                ansi = out.isatty()
                print(render_progress_line(event, ansi=ansi), file=out)
                data = event.get("data", {})
                if (event.get("event") == "state"
                        and data.get("state") in TERMINAL_STATES):
                    return 0 if data.get("state") == "done" else 1
        except (OSError, http.client.HTTPException):
            time.sleep(0.5)  # server restarting; retry with Last-Event-ID
        finally:
            conn.close()
    print(f"repro progress: timed out after {timeout_s:.0f}s", file=sys.stderr)
    return 1
