"""``repro progress`` — the terminal client for one job's SSE stream.

``repro progress <job-id>`` tails ``GET /v1/jobs/<id>/events`` and
prints each progress snapshot and state transition as a line. If the
connection drops it re-attaches and the server replays the job's
current ring, so the output always tells the serving process's story.

Rendering is split from transport: :func:`render_progress_line` is a
pure string function over an event dict, so the test suite exercises
layout without sockets, and the transport is a tiny ``http.client``
loop (stdlib only, matching the server's dependency stance).
"""

from __future__ import annotations

import http.client
import json
import sys
import time
from urllib.parse import urlsplit

from repro.serve.events import TERMINAL_STATES, read_events

_RESET = "\x1b[0m"
_STATE_COLOR = {
    "running": "\x1b[36m", "done": "\x1b[32m",
    "failed": "\x1b[31m", "expired": "\x1b[33m",
}


def split_url(url: str) -> tuple[str, int]:
    """``host:port`` from a server URL (scheme optional)."""
    if "//" not in url:
        url = "http://" + url
    parts = urlsplit(url)
    return parts.hostname or "127.0.0.1", parts.port or 8023


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


def run_progress(job_id: str, url: str, out=None, timeout_s: float = 600.0) -> int:
    """Tail one job's SSE stream until a terminal state (``repro
    progress``). Re-attaches on a dropped connection; exits 0 on
    ``done``, 1 on ``failed``/``expired`` or timeout."""
    out = out or sys.stdout
    host, port = split_url(url)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                body = response.read()
                print(f"repro progress: HTTP {response.status}: "
                      f"{body.decode('utf-8', 'replace')[:200]}",
                      file=sys.stderr)
                return 1
            for event in read_events(response):
                ansi = out.isatty()
                print(render_progress_line(event, ansi=ansi), file=out)
                data = event.get("data", {})
                if (event.get("event") == "state"
                        and data.get("state") in TERMINAL_STATES):
                    return 0 if data.get("state") == "done" else 1
        except (OSError, http.client.HTTPException):
            time.sleep(0.5)  # server restarting; re-attach
        finally:
            conn.close()
    print(f"repro progress: timed out after {timeout_s:.0f}s", file=sys.stderr)
    return 1
