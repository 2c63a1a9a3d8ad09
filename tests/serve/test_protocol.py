"""Wire-format validation: strict 400s in, structured envelopes out."""

import pytest

from repro.serve.protocol import (
    MAX_GRAPH_SCALE,
    MAX_RUNS_PER_JOB,
    SERVE_SCHEMA,
    JobRequest,
    RequestError,
    envelope,
)


def _payload(**overrides) -> dict:
    payload = {
        "id": "job-1",
        "tenant": "acme",
        "runs": [{"app": "BFS", "policy": "pcc"}],
    }
    payload.update(overrides)
    return payload


class TestValidation:
    def test_minimal_payload_validates(self):
        request = JobRequest.from_payload(_payload())
        assert request.id == "job-1"
        assert request.tenant == "acme"
        assert request.runs[0]["app"] == "BFS"
        # defaults keep service jobs small
        assert request.runs[0]["graph_scale"] == 10
        assert request.runs[0]["proxy_accesses"] == 20_000

    def test_id_is_generated_when_absent(self):
        payload = _payload()
        del payload["id"]
        request = JobRequest.from_payload(payload)
        assert request.id.startswith("job-")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"id": "has spaces"},
            {"id": "-leading-dash"},
            {"tenant": "x" * 40},
            {"deadline_s": -1},
            {"deadline_s": "soon"},
            {"jobs": 0},
            {"runs": []},
            {"runs": "BFS"},
            {"runs": [{"policy": "pcc"}]},  # no app
            {"runs": [{"app": "BFS", "policy": "made-up"}]},
            {"runs": [{"app": "BFS", "warp_speed": True}]},
            {"runs": [{"app": "BFS", "graph_scale": MAX_GRAPH_SCALE + 1}]},
            {"runs": [{"app": "BFS", "fragmentation": 1.5}]},
        ],
    )
    def test_bad_payloads_raise(self, mutation):
        with pytest.raises(RequestError):
            JobRequest.from_payload(_payload(**mutation))

    def test_non_object_body_raises(self):
        with pytest.raises(RequestError):
            JobRequest.from_payload([1, 2, 3])

    def test_unknown_app_lists_the_accepted_apps(self):
        with pytest.raises(RequestError, match="no-such-app") as excinfo:
            JobRequest.from_payload(_payload(runs=[{"app": "no-such-app"}]))
        message = str(excinfo.value)
        assert "'BFS'" in message and "'giant-span'" in message

    def test_unknown_dataset_lists_the_accepted_datasets(self):
        with pytest.raises(RequestError, match="kronecker"):
            JobRequest.from_payload(
                _payload(runs=[{"app": "BFS", "dataset": "tiny"}]))

    def test_extended_workloads_and_datasets_validate(self):
        request = JobRequest.from_payload(_payload(runs=[
            {"app": "phased"}, {"app": "PR", "dataset": "web"},
        ]))
        assert [run["app"] for run in request.runs] == ["phased", "PR"]

    def test_runs_cap_is_enforced(self):
        runs = [{"app": "BFS"}] * (MAX_RUNS_PER_JOB + 1)
        with pytest.raises(RequestError, match="capped"):
            JobRequest.from_payload(_payload(runs=runs))


class TestSpecs:
    def test_runs_become_runspecs(self):
        request = JobRequest.from_payload(_payload())
        specs = request.to_specs()
        assert specs[0].app == "BFS"
        assert specs[0].policy == "pcc"
        assert specs[0].graph_scale == 10

    def test_same_question_has_the_same_journal_key(self):
        """Jobs asking the same question share one results shard."""
        from repro.experiments.common import execute_spec
        from repro.resilience.journal import RunJournal

        journal = RunJournal("/tmp/unused")
        first = JobRequest.from_payload(_payload())
        second = JobRequest.from_payload(_payload(id="job-2", tenant="other"))
        assert ([journal.key_for(execute_spec, s) for s in first.to_specs()]
                == [journal.key_for(execute_spec, s)
                    for s in second.to_specs()])

    def test_distinct_runs_have_distinct_journal_keys(self):
        from repro.experiments.common import execute_spec
        from repro.resilience.journal import RunJournal

        journal = RunJournal("/tmp/unused")
        request = JobRequest.from_payload(_payload(runs=[
            {"app": "BFS", "policy": "pcc"},
            {"app": "BFS", "policy": "pcc", "seed": 1},
            {"app": "BFS", "policy": "linux-thp"},
            {"app": "PR", "policy": "pcc"},
        ]))
        keys = {journal.key_for(execute_spec, spec)
                for spec in request.to_specs()}
        assert len(keys) == 4


class TestEnvelope:
    def test_envelope_shape(self):
        from repro.serve.lifecycle import Job

        request = JobRequest.from_payload(_payload())
        job = Job.from_request(request)
        doc = envelope(job)
        assert doc["schema"] == SERVE_SCHEMA
        assert doc["job"]["id"] == "job-1"
        assert doc["job"]["state"] == "queued"
        assert doc["degraded"] == []
        assert doc["result"] is None
        assert doc["error"] is None

    @pytest.mark.parametrize("state", ["done", "failed"])
    def test_degraded_is_empty_on_finished_jobs(self, state):
        """The field stays in repro.serve/v1 but never names a fallback."""
        from repro.serve.lifecycle import Job

        job = Job.from_request(JobRequest.from_payload(_payload()))
        job.state = state
        if state == "done":
            job.results = [{"policy": "pcc"}]
        else:
            job.error = {"type": "JobExecutionError", "message": "boom"}
        doc = envelope(job)
        assert doc["job"]["state"] == state
        assert doc["degraded"] == []
