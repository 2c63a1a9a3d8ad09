"""SSE plane: broker semantics, wire codecs, and the live per-job
streaming protocol (ring replay on re-attach, the synthetic terminal
frame after a restart, client disconnect mid-stream)."""

import asyncio
import http.client
import io
import threading

from repro.serve.client import run_progress
from repro.serve.events import (
    EventBroker,
    format_comment,
    format_event,
    read_events,
)

from .conftest import small_job


class TestWireCodecs:
    def test_frame_round_trip(self):
        frames = (
            format_event(1, "state", {"state": "queued"})
            + format_comment()
            + format_event(2, "progress", {"records_done": 5})
        )
        events = list(read_events(io.BytesIO(frames)))
        assert [(e["id"], e["event"]) for e in events] == [
            (1, "state"), (2, "progress"),
        ]
        assert events[0]["data"] == {"state": "queued"}

    def test_reader_tolerates_crlf_and_unparseable_data(self):
        raw = b"id: 3\r\nevent: state\r\ndata: not-json\r\n\r\n"
        events = list(read_events(io.BytesIO(raw)))
        assert events[0]["id"] == 3
        assert events[0]["data"] == {"raw": "not-json"}


class TestBroker:
    def test_ids_are_per_channel_from_one(self):
        broker = EventBroker()
        broker.publish("a", "state", {"n": 1})
        broker.publish("b", "state", {"n": 1})
        broker.publish("a", "state", {"n": 2})
        assert [i for i, _, _ in broker.events("a")] == [1, 2]
        assert broker.last_id("b") == 1

    def test_subscribe_replays_the_whole_ring(self):
        broker = EventBroker()
        for n in range(5):
            broker.publish("c", "progress", {"n": n})
        _, replay = broker.subscribe("c")
        assert [i for i, _, _ in replay] == [1, 2, 3, 4, 5]

    def test_ring_is_bounded(self):
        broker = EventBroker(history=4)
        for n in range(10):
            broker.publish("c", "progress", {"n": n})
        ring = broker.events("c")
        assert len(ring) == 4
        assert ring[0][0] == 7  # ids keep counting past evictions

    def test_subscribers_get_live_events_of_their_channel_only(self):
        async def scenario():
            broker = EventBroker()
            broker.bind(asyncio.get_running_loop())
            broker.publish("a", "state", {"state": "queued"})
            queue, replay = broker.subscribe("a")
            broker.publish("b", "state", {"state": "queued"})
            broker.publish("a", "state", {"state": "running"})
            live = await asyncio.wait_for(queue.get(), timeout=5)
            return replay, live, queue.empty()

        replay, live, drained = asyncio.run(scenario())
        assert replay == [(1, "state", {"state": "queued"})]
        assert live == (2, "state", {"state": "running"})
        assert drained  # channel "b" never reached the "a" subscriber

    def test_off_loop_publish_is_marshalled_onto_the_loop(self):
        async def scenario():
            broker = EventBroker()
            broker.bind(asyncio.get_running_loop())
            queue, _ = broker.subscribe("c")
            worker = threading.Thread(
                target=broker.publish, args=("c", "progress", {"n": 1}))
            worker.start()
            await asyncio.to_thread(worker.join)
            return await asyncio.wait_for(queue.get(), timeout=5)

        assert asyncio.run(scenario()) == (1, "progress", {"n": 1})

    def test_unknown_channel_is_empty(self):
        broker = EventBroker()
        _, replay = broker.subscribe("never")
        assert replay == []
        assert broker.last_id("never") == 0
        assert broker.events("never") == []

    def test_unsubscribe_is_idempotent(self):
        broker = EventBroker()
        queue, _ = broker.subscribe("c")
        broker.unsubscribe("c", queue)
        broker.unsubscribe("c", queue)


def open_stream(port: int, path: str, timeout=30):
    """Open one SSE stream; returns (connection, response)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request("GET", path)
    response = conn.getresponse()
    return conn, response


def collect_stream(port: int, path: str, out: list):
    """Thread body: append every event until the stream closes."""
    conn, response = open_stream(port, path)
    try:
        if response.status != 200:
            out.append({"event": "_http_error", "data": {
                "status": response.status}})
            return
        for event in read_events(response):
            out.append(event)
    except (OSError, http.client.HTTPException):
        pass
    finally:
        conn.close()


class TestLiveStreaming:
    def test_stream_carries_progress_then_terminal_state(self, serve_factory):
        handle = serve_factory()
        status, _, _ = handle.request(
            "POST", "/v1/jobs", small_job("sse-1"))
        assert status == 202
        events = []
        tailer = threading.Thread(
            target=collect_stream, args=(handle.port, "/v1/jobs/sse-1/events",
                                         events),
            daemon=True)
        tailer.start()
        tailer.join(timeout=60)
        assert not tailer.is_alive(), "stream never reached a terminal state"
        kinds = [e["event"] for e in events]
        assert kinds[0] == "state" and events[0]["data"]["state"] == "queued"
        assert "progress" in kinds
        assert events[-1]["event"] == "state"
        assert events[-1]["data"]["state"] == "done"
        # progress precedes the terminal event on the wire
        assert kinds.index("progress") < len(kinds) - 1
        ids = [e["id"] for e in events]
        assert ids == sorted(ids)

    def test_unknown_job_stream_is_404(self, serve_factory):
        handle = serve_factory()
        conn, response = open_stream(handle.port, "/v1/jobs/nope/events")
        try:
            assert response.status == 404
        finally:
            conn.close()

    def test_reattach_to_finished_job_replays_the_whole_story(
            self, serve_factory):
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("sse-2"))
        handle.wait_for_state("sse-2")
        first = []
        collect_stream(handle.port, "/v1/jobs/sse-2/events", first)
        again = []
        collect_stream(handle.port, "/v1/jobs/sse-2/events", again)
        for events in (first, again):
            states = [e["data"]["state"] for e in events
                      if e["event"] == "state"]
            assert states == ["queued", "running", "done"]
            ids = [e["id"] for e in events]
            assert ids == sorted(set(ids)) and ids[0] == 1
        assert again == first

    def test_job_finished_before_restart_gets_one_terminal_frame(
            self, serve_factory):
        first = serve_factory()
        first.request("POST", "/v1/jobs", small_job("sse-3"))
        first.wait_for_state("sse-3")
        first.drain_and_join()
        # same state_dir: the new process knows the job from the
        # journal but its broker has never seen an event for it
        second = serve_factory()
        events = []
        collect_stream(second.port, "/v1/jobs/sse-3/events", events)
        assert [(e["event"], e["data"]["state"]) for e in events] == [
            ("state", "done")]
        out = io.StringIO()
        assert run_progress("sse-3", f"127.0.0.1:{second.port}", out=out,
                            timeout_s=30) == 0
        assert out.getvalue().strip() == "-- done"

    def test_client_disconnect_mid_stream_does_not_hurt_the_job(
            self, serve_factory):
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("sse-4"))
        conn, response = open_stream(handle.port, "/v1/jobs/sse-4/events")
        # read one frame, then hang up mid-stream
        assert response.status == 200
        line = response.readline()
        assert line
        response.close()
        conn.close()
        doc = handle.wait_for_state("sse-4")
        assert doc["job"]["state"] == "done"
        # the server stays healthy for new streams after the rude close
        final = []
        collect_stream(handle.port, "/v1/jobs/sse-4/events", final)
        assert final[-1]["data"]["state"] == "done"

    def test_all_jobs_event_stream_is_gone(self, serve_factory):
        handle = serve_factory()
        status, _, _ = handle.request("GET", "/v1" + "/events")
        assert status == 404
