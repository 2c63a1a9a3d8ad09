"""Server-Sent Events plumbing for the serving daemon.

:class:`EventBroker` is the in-process pub/sub hub between the job
lifecycle (state transitions, published from the executor coroutines)
plus the progress spool tailer, and any number of open
``GET /v1/jobs/<id>/events`` streams. Design points:

- **per-channel ids + bounded replay.** Every channel (one per job
  id) numbers its events from 1 and keeps the last :data:`HISTORY` in
  a ring. A new subscription replays the whole ring, so a client
  attaching to a job mid-run, or re-attaching after a dropped
  connection, immediately sees the queued→running transition and the
  latest progress snapshots instead of silence until the next emit.
  The rings live in memory: after a restart each channel starts again
  from id 1 with the new process's story.
- **thread-agnostic publish.** Almost everything publishes from the
  event loop; anything else is bounced through
  ``loop.call_soon_threadsafe``. Subscriber queues are plain
  ``asyncio.Queue`` drained by the per-connection stream coroutine.

The module also carries both wire codecs: :func:`format_event` writes
the ``id:``/``event:``/``data:`` frame, and :func:`read_events` is the
blocking client-side parser used by ``repro progress``, the load
harness, and the protocol tests.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import deque

#: Events retained per channel for replay to late subscribers.
HISTORY = 256

#: ``state`` event payload values that end a job's stream.
TERMINAL_STATES = ("done", "failed", "expired")


def format_event(event_id: int, event: str, data: dict) -> bytes:
    """One SSE frame: id, event name, single-line JSON data."""
    payload = json.dumps(data, separators=(",", ":"))
    return f"id: {event_id}\nevent: {event}\ndata: {payload}\n\n".encode()


def format_comment(text: str = "ping") -> bytes:
    """A comment frame — the keep-alive heartbeat clients ignore."""
    return f": {text}\n\n".encode()


def read_events(fp):
    """Parse SSE frames from a blocking file-like; yields event dicts.

    ``fp`` needs only ``readline()`` returning bytes (an
    ``http.client.HTTPResponse`` qualifies). Yields
    ``{"id": int | None, "event": str, "data": dict}`` per frame,
    skipping comments; returns when the stream closes. Tolerates
    ``\\r\\n`` line endings and multi-line ``data:`` fields.
    """
    event_id: int | None = None
    event_name = "message"
    data_lines: list[str] = []
    while True:
        raw = fp.readline()
        if not raw:
            return
        line = raw.decode("utf-8", "replace").rstrip("\r\n")
        if not line:
            if data_lines:
                try:
                    data = json.loads("\n".join(data_lines))
                except ValueError:
                    data = {"raw": "\n".join(data_lines)}
                yield {"id": event_id, "event": event_name, "data": data}
            event_id = None
            event_name = "message"
            data_lines = []
            continue
        if line.startswith(":"):
            continue
        field, _, value = line.partition(":")
        value = value.removeprefix(" ")
        if field == "id":
            try:
                event_id = int(value)
            except ValueError:
                event_id = None
        elif field == "event":
            event_name = value
        elif field == "data":
            data_lines.append(value)


class EventBroker:
    """Per-channel event rings with asyncio subscriber fan-out."""

    def __init__(self, history: int = HISTORY) -> None:
        self.history = history
        self._rings: dict[str, deque] = {}
        self._next_id: dict[str, int] = {}
        self._queues: dict[str, set[asyncio.Queue]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: int | None = None

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Adopt the serving loop; must be called from that loop."""
        self._loop = loop
        self._loop_thread = threading.get_ident()

    # ------------------------------------------------------------------
    # publishing

    def publish(self, channel: str, event: str, data: dict) -> None:
        """Append an event to ``channel`` and fan it out to subscribers.

        Safe from any thread: off-loop calls are marshalled with
        ``call_soon_threadsafe``.
        """
        if (
            self._loop is not None
            and threading.get_ident() != self._loop_thread
            and self._loop.is_running()
        ):
            self._loop.call_soon_threadsafe(self._append, channel, event, data)
            return
        self._append(channel, event, data)

    def _append(self, channel: str, event: str, data: dict) -> None:
        ring = self._rings.get(channel)
        if ring is None:
            ring = self._rings[channel] = deque(maxlen=self.history)
            self._next_id[channel] = 0
        self._next_id[channel] += 1
        entry = (self._next_id[channel], event, data)
        ring.append(entry)
        for queue in self._queues.get(channel, ()):  # snapshot-safe: set copy below
            try:
                queue.put_nowait(entry)
            except asyncio.QueueFull:  # pragma: no cover - unbounded queues
                pass

    # ------------------------------------------------------------------
    # subscribing

    def subscribe(
        self, channel: str
    ) -> tuple[asyncio.Queue, list[tuple[int, str, dict]]]:
        """Attach a queue to ``channel``; returns ``(queue, replay)``.

        ``replay`` is the channel's whole ring — emit it before awaiting
        the queue and the client never sees a gap, because ids are
        assigned on the loop thread that also fans out to queues.
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._queues.setdefault(channel, set()).add(queue)
        return queue, list(self._rings.get(channel, ()))

    def unsubscribe(self, channel: str, queue: asyncio.Queue) -> None:
        """Detach a queue (idempotent)."""
        queues = self._queues.get(channel)
        if queues is not None:
            queues.discard(queue)
            if not queues:
                del self._queues[channel]

    # ------------------------------------------------------------------
    # introspection

    def last_id(self, channel: str) -> int:
        """Highest id assigned on ``channel`` (0 before any event)."""
        return self._next_id.get(channel, 0)

    def events(self, channel: str) -> list[tuple[int, str, dict]]:
        """The channel's current ring contents (oldest first)."""
        return list(self._rings.get(channel, ()))
