"""End-to-end serving: HTTP surface, lifecycle, recovery, degradation."""

import json

from repro.resilience.faults import injecting
from repro.serve.lifecycle import Job, JobStore
from repro.serve.protocol import JobRequest

from .conftest import small_job
from .test_events import collect_stream


class TestHttpSurface:
    def test_submit_poll_done(self, serve_factory):
        handle = serve_factory()
        status, doc, _ = handle.request("POST", "/v1/jobs",
                                        small_job("e2e-1"))
        assert status == 202
        assert doc["job"]["state"] == "queued"
        final = handle.wait_for_state("e2e-1")
        assert final["job"]["state"] == "done"
        assert final["degraded"] == []
        assert final["result"][0]["total_cycles"] > 0
        handle.drain_and_join()

    def test_resubmission_is_idempotent(self, serve_factory):
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("dup-1"))
        final = handle.wait_for_state("dup-1")
        status, doc, _ = handle.request("POST", "/v1/jobs",
                                        small_job("dup-1"))
        assert status == 200  # known job: reported, never re-run
        assert doc["job"]["finished_ms"] == final["job"]["finished_ms"]

    def test_invalid_payload_is_a_400(self, serve_factory):
        handle = serve_factory()
        status, doc, _ = handle.request(
            "POST", "/v1/jobs", {"runs": [{"policy": "pcc"}]}
        )
        assert status == 400
        assert doc["error"]["type"] == "RequestError"
        status, doc, _ = handle.request("POST", "/v1/jobs", body=None)
        assert status == 400

    def test_unknown_app_is_a_400_and_never_journaled(self, serve_factory):
        handle = serve_factory()
        payload = small_job("bad-app-1")
        payload["runs"][0]["app"] = "no-such-app"
        status, doc, _ = handle.request("POST", "/v1/jobs", payload)
        assert status == 400
        assert "no-such-app" in doc["error"]["message"]
        assert "'BFS'" in doc["error"]["message"]  # lists accepted apps
        assert handle.request("GET", "/v1/jobs/bad-app-1")[0] == 404
        store = JobStore(handle.server.config.resolved_state_dir() / "jobs")
        unfinished, finished = store.recover()
        assert unfinished == [] and finished == []

    def test_job_registry_summary(self, serve_factory):
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("sum-1"))
        handle.wait_for_state("sum-1")
        status, doc, _ = handle.request("GET", "/v1/jobs")
        assert status == 200
        assert set(doc) == {"schema", "jobs", "states", "queue_depth",
                            "tenants"}
        assert doc["jobs"] == 1
        assert doc["states"] == {"done": 1}
        assert doc["queue_depth"] == 0
        assert doc["tenants"] == {}

    def test_unknown_job_is_a_404(self, serve_factory):
        handle = serve_factory()
        status, doc, _ = handle.request("GET", "/v1/jobs/nope")
        assert status == 404
        assert doc["error"]["type"] == "UnknownJob"

    def test_unknown_route_and_bad_method(self, serve_factory):
        handle = serve_factory()
        assert handle.request("GET", "/v2/other")[0] == 404
        assert handle.request("DELETE", "/v1/jobs")[0] == 405

    def test_health_ready_metrics(self, serve_factory):
        handle = serve_factory()
        status, doc, _ = handle.request("GET", "/healthz")
        assert status == 200 and doc["ok"]
        status, doc, _ = handle.request("GET", "/readyz")
        assert status == 200 and doc["ready"]
        assert "breaker" not in doc
        assert "repro_resilience_serve_accepted_total" in handle.counters()


class TestBackpressure:
    def test_saturated_queue_is_a_429_with_retry_after(self, serve_factory):
        handle = serve_factory(queue_limit=0)
        status, doc, headers = handle.request("POST", "/v1/jobs",
                                              small_job("full-1"))
        assert status == 429
        assert doc["error"]["type"] == "Saturated"
        assert doc["retryable"] is True
        assert int(headers.get("Retry-After", "0")) >= 1

    def test_draining_server_refuses_new_work(self, serve_factory):
        handle = serve_factory()
        status, doc, _ = handle.request("POST", "/v1/drain")
        assert status == 200 and doc["draining"]
        # the drained server may exit between these requests; a refused
        # connection is the same statement as a 503
        try:
            status, doc, _ = handle.request("POST", "/v1/jobs",
                                            small_job("late-1"))
        except OSError:
            return
        assert status == 503
        assert doc["error"]["type"] == "Draining"


class TestDeadlines:
    def test_expired_job_is_expired_not_failed(self, serve_factory):
        handle = serve_factory()
        status, _, _ = handle.request(
            "POST", "/v1/jobs",
            small_job("dl-1", deadline_s=0.001),
        )
        assert status == 202
        final = handle.wait_for_state("dl-1")
        assert final["job"]["state"] == "expired"
        assert final["error"]["type"] == "DeadlineExceeded"


class TestRecovery:
    def test_journaled_jobs_resume_on_startup(self, serve_factory, tmp_path):
        """A queued record left by a dead server runs on the next boot."""
        state = tmp_path / "recovery-state"
        store = JobStore(state / "jobs")
        request = JobRequest.from_payload(small_job("orphan-1"))
        store.save(Job.from_request(request))
        handle = serve_factory(state_dir=state)
        final = handle.wait_for_state("orphan-1")
        assert final["job"]["state"] == "done"
        assert handle.counters()["repro_resilience_serve_recovered_total"] >= 1

    def test_finished_jobs_survive_restart(self, serve_factory, tmp_path):
        state = tmp_path / "restart-state"
        first = serve_factory(state_dir=state)
        first.request("POST", "/v1/jobs", small_job("keep-1"))
        final = first.wait_for_state("keep-1")
        first.drain_and_join()
        second = serve_factory(state_dir=state)
        status, doc, _ = second.request("GET", "/v1/jobs/keep-1")
        assert status == 200
        assert doc["job"]["state"] == "done"
        assert doc["job"]["finished_ms"] == final["job"]["finished_ms"]


class TestDegradation:
    def test_accept_fault_is_a_structured_503(self, serve_factory, tmp_path):
        handle = serve_factory()
        with injecting("exc@serve.accept", state_dir=tmp_path / "faults"):
            status, doc, headers = handle.request(
                "POST", "/v1/jobs", small_job("flt-1")
            )
        assert status == 503
        assert doc["error"]["type"] == "InjectedFault"
        assert doc["retryable"] is True
        # the fault fired exactly once; the retry is accepted
        status, _, _ = handle.request("POST", "/v1/jobs", small_job("flt-1"))
        assert status == 202
        assert handle.wait_for_state("flt-1")["job"]["state"] == "done"

    def test_dispatch_fault_requeues_and_completes(self, serve_factory,
                                                   tmp_path):
        handle = serve_factory()
        with injecting("exc@serve.dispatch", state_dir=tmp_path / "faults"):
            handle.request("POST", "/v1/jobs", small_job("rq-1"))
            final = handle.wait_for_state("rq-1")
        assert final["job"]["state"] == "done"
        assert final["job"]["attempts"] >= 2
        assert handle.counters()["repro_resilience_serve_requeued_total"] >= 1

    def test_publish_fault_requeues_and_replays_from_journal(
        self, serve_factory, tmp_path
    ):
        handle = serve_factory()
        with injecting("exc@serve.result.publish",
                       state_dir=tmp_path / "faults"):
            handle.request("POST", "/v1/jobs", small_job("pub-1"))
            final = handle.wait_for_state("pub-1")
        assert final["job"]["state"] == "done"
        assert final["job"]["attempts"] >= 2
        # the re-execution resumed the finished run from the results
        # journal instead of recomputing it
        assert handle.server.results_journal.stats.resumed >= 1

    def test_engine_fault_fails_the_job_loudly(
        self, serve_factory, tmp_path, monkeypatch
    ):
        """A columnar defect ends the job failed on its first attempt,
        naming the spec; no slower tier quietly answers instead."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_TASK_RETRIES", "1")
        handle = serve_factory()
        payload = small_job("loud-1")
        payload["runs"][0]["label"] = "bfs-loud"
        with injecting("exc@engine.columnar.encode",
                       state_dir=tmp_path / "faults"):
            handle.request("POST", "/v1/jobs", payload)
            final = handle.wait_for_state("loud-1")
        assert final["job"]["state"] == "failed"
        assert final["job"]["attempts"] == 1
        assert final["degraded"] == []
        assert final["error"]["type"] == "JobExecutionError"
        assert "bfs-loud" in final["error"]["message"]
        assert final["result"] is None

        events = []
        collect_stream(handle.port, "/v1/jobs/loud-1/events", events)
        states = [event["data"]["state"] for event in events
                  if event["event"] == "state"]
        assert states == ["queued", "running", "failed"]
        capture = tmp_path / "loud-1.events.json"
        capture.write_text(json.dumps({"events": events}))
        assert main(["inspect", str(capture), "--check"]) == 0

    def test_worker_crash_is_absorbed_by_the_fan_out(
        self, serve_factory, tmp_path, monkeypatch
    ):
        """Pool damage heals inside fan_out: the job is done, with
        nothing degraded, and the rebuild shows on /metrics."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        handle = serve_factory()
        rebuilds = "repro_resilience_pool_rebuilds_total"
        before = handle.counters()[rebuilds]
        payload = small_job("crash-1", jobs=2)
        payload["runs"].append(dict(payload["runs"][0], seed=1))
        with injecting("crash@worker.task", state_dir=tmp_path / "faults"):
            handle.request("POST", "/v1/jobs", payload)
            final = handle.wait_for_state("crash-1")
        assert final["job"]["state"] == "done"
        assert final["degraded"] == []
        assert len(final["result"]) == 2
        assert handle.counters()[rebuilds] >= max(1, before + 1)


class TestDrain:
    def test_drain_finishes_backlog_then_exits(self, serve_factory):
        handle = serve_factory()
        for index in range(3):
            status, _, _ = handle.request(
                "POST", "/v1/jobs", small_job(f"dr-{index}", seed=index)
            )
            assert status == 202
        handle.request("POST", "/v1/drain")
        handle.thread.join(timeout=60)
        assert not handle.thread.is_alive()
        # every accepted job reached a terminal state before exit
        store = JobStore(handle.server.config.resolved_state_dir() / "jobs")
        unfinished, finished = store.recover()
        assert unfinished == []
        assert {job.id for job in finished} >= {"dr-0", "dr-1", "dr-2"}
        assert all(job.state == "done" for job in finished)
