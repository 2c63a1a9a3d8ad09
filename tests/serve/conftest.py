"""Thread-hosted server harness for the serve e2e tests."""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.metrics.prometheus import parse_exposition
from repro.serve.server import ServeConfig, SimulationServer


class ServerHandle:
    """One running server plus a tiny blocking HTTP/JSON client."""

    def __init__(self, server: SimulationServer, loop, thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    def request(self, method: str, path: str, body=None, timeout=30):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request(
                method, path,
                body=json.dumps(body) if body is not None else None,
            )
            response = conn.getresponse()
            doc = json.loads(response.read() or b"null")
            return response.status, doc, dict(response.getheaders())
        finally:
            conn.close()

    def counters(self) -> dict[str, float]:
        """Counter totals from ``GET /metrics``, by Prometheus sample name."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        return {
            name: value
            for family in parse_exposition(text).values()
            if family["type"] == "counter"
            for name, _, value in family["samples"]
        }

    def wait_for_state(self, job_id: str, states=("done", "failed",
                                                  "expired"), timeout=60):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, doc, _ = self.request("GET", f"/v1/jobs/{job_id}")
            if status == 200 and doc["job"]["state"] in states:
                return doc
            time.sleep(0.05)
        raise AssertionError(
            f"job {job_id} never reached {states}; last: {doc}"
        )

    def drain_and_join(self, timeout=30) -> None:
        if self.thread.is_alive():
            try:
                self.request("POST", "/v1/drain")
            except OSError:
                pass
            self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "server failed to drain"

    def stop(self) -> None:
        """Best-effort shutdown for teardown paths."""
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_drain)
            self.thread.join(timeout=10)


@pytest.fixture
def serve_factory(tmp_path):
    """Start servers on free ports; everything is drained at teardown."""
    handles = []

    def start(**overrides) -> ServerHandle:
        overrides.setdefault("state_dir", tmp_path / "serve-state")
        overrides.setdefault("executors", 1)
        config = ServeConfig(port=0, **overrides)
        server = SimulationServer(config)
        loop = asyncio.new_event_loop()

        def body():
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(server.serve_forever())
            finally:
                loop.close()

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        deadline = time.time() + 30
        while server.port is None:
            if not thread.is_alive():
                raise AssertionError("server thread died during startup")
            if time.time() > deadline:
                raise AssertionError("server never bound a port")
            time.sleep(0.01)
        handle = ServerHandle(server, loop, thread)
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()


def small_job(job_id: str, seed: int = 0, **extra) -> dict:
    payload = {
        "id": job_id,
        "tenant": "test",
        "runs": [{"app": "BFS", "policy": "pcc", "graph_scale": 8,
                  "proxy_accesses": 2000, "seed": seed}],
    }
    payload.update(extra)
    return payload
