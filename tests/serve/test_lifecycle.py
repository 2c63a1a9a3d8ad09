"""Job lifecycle: durable records, recovery split, fail-loud execution."""

import pytest

from repro.resilience.journal import RunJournal
from repro.resilience.retry import RetryPolicy
from repro.serve.lifecycle import (
    DONE,
    QUEUED,
    RUNNING,
    Job,
    JobDeadlineExceeded,
    JobExecutionError,
    JobStore,
    deadline_policy,
    execute_job,
    now_ms,
)
from repro.serve.protocol import JobRequest

#: No backoff, no waiting — unit tests should not sleep.
FAST = RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0)


def _run(**overrides) -> dict:
    run = {"app": "BFS", "policy": "pcc", "graph_scale": 8,
           "proxy_accesses": 2000}
    run.update(overrides)
    return run


def _request(job_id="j1", **run_overrides) -> JobRequest:
    return JobRequest.from_payload(
        {"id": job_id, "tenant": "t", "runs": [_run(**run_overrides)]}
    )


class TestJobStore:
    def test_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job.from_request(_request())
        store.save(job)
        loaded = store.load("j1")
        assert loaded.id == "j1"
        assert loaded.state == QUEUED
        assert loaded.payload == job.payload

    def test_transitions_rewrite_the_same_shard(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job.from_request(_request())
        store.save(job)
        job.state = RUNNING
        store.save(job)
        assert store.load("j1").state == RUNNING
        assert len(store.journal) == 1

    def test_recover_splits_on_terminal_state(self, tmp_path):
        store = JobStore(tmp_path)
        open_job = Job.from_request(_request("open"))
        done_job = Job.from_request(_request("closed"))
        done_job.state = DONE
        store.save(open_job)
        store.save(done_job)
        unfinished, finished = store.recover()
        assert [job.id for job in unfinished] == ["open"]
        assert [job.id for job in finished] == ["closed"]

    def test_recover_orders_by_submission_time(self, tmp_path):
        store = JobStore(tmp_path)
        late = Job.from_request(_request("late"))
        late.submitted_ms = now_ms() + 1000
        early = Job.from_request(_request("early"))
        store.save(late)
        store.save(early)
        unfinished, _ = store.recover()
        assert [job.id for job in unfinished] == ["early", "late"]

    def test_recover_skips_foreign_journal_keys(self, tmp_path):
        store = JobStore(tmp_path)
        store.journal.commit("not-a-job-key", {"some": "result"})
        store.save(Job.from_request(_request()))
        unfinished, finished = store.recover()
        assert len(unfinished) == 1 and not finished


class TestDeadlinePolicy:
    def test_no_deadline_keeps_the_base(self):
        assert deadline_policy(FAST, None) is FAST

    def test_deadline_becomes_the_timeout_ceiling(self):
        policy = deadline_policy(FAST, 2.5)
        assert policy.timeout == 2.5

    def test_shorter_existing_timeout_wins(self):
        base = RetryPolicy(max_attempts=1, timeout=1.0)
        assert deadline_policy(base, 30.0).timeout == 1.0

    def test_floor_guards_against_negative_remnants(self):
        assert deadline_policy(FAST, 0.001).timeout == pytest.approx(0.1)


class TestExecuteJob:
    def test_clean_execution_returns_summaries(self, tmp_path):
        job = Job.from_request(_request())
        summaries = execute_job(
            job, RunJournal(tmp_path / "results"), retry_policy=FAST
        )
        assert summaries[0]["policy"] == "pcc"
        assert summaries[0]["total_cycles"] > 0

    def test_results_dedupe_through_the_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "results")
        first = execute_job(
            Job.from_request(_request("a")), journal, retry_policy=FAST
        )
        commits = journal.stats.commits
        # a different job asking the same question replays the shard
        second = execute_job(
            Job.from_request(_request("b")), journal, retry_policy=FAST
        )
        assert second == first
        assert journal.stats.commits == commits
        assert journal.stats.resumed >= 1

    def test_engine_failure_fails_the_job_once_per_spec(
        self, tmp_path, monkeypatch
    ):
        """A columnar defect fails the job; nothing re-runs on a slower
        tier, and the error names the spec that failed."""
        from repro.experiments import common
        from repro.resilience.faults import injecting

        executed = []
        original = common.execute_spec

        def counting(spec):
            executed.append(spec.label)
            return original(spec)

        monkeypatch.setattr(common, "execute_spec", counting)
        job = Job.from_request(JobRequest.from_payload({
            "id": "hurt", "tenant": "t",
            "runs": [_run(label="first"), _run(label="second", seed=1)],
        }))
        with injecting("exc@engine.columnar.encode",
                       state_dir=tmp_path / "faults"):
            with pytest.raises(JobExecutionError) as excinfo:
                execute_job(job, RunJournal(tmp_path / "results"),
                            retry_policy=FAST)
        assert executed == ["first", "second"]
        assert "first" in str(excinfo.value)
        assert "second" not in str(excinfo.value)
        quarantined = excinfo.value.report["quarantined"]
        assert [failure["task"] for failure in quarantined] == ["first"]
        assert not hasattr(excinfo.value, "degraded")

    def test_served_summaries_match_a_direct_run(self, tmp_path):
        """The service answers exactly what the CLI's spec path computes."""
        from repro.experiments.common import execute_spec
        from repro.serve.protocol import result_summary

        request = _request("direct")
        served = execute_job(Job.from_request(request),
                             RunJournal(tmp_path / "results"),
                             retry_policy=FAST)
        direct = [result_summary(execute_spec(spec))
                  for spec in request.to_specs()]
        assert served == direct

    def test_failed_spec_is_recomputed_on_resubmission(self, tmp_path):
        """A failure journals nothing for the failed spec: the next job
        asking the same question computes it instead of replaying it."""
        from repro.resilience.faults import injecting

        journal = RunJournal(tmp_path / "results")
        with injecting("exc@engine.columnar.encode",
                       state_dir=tmp_path / "faults"):
            with pytest.raises(JobExecutionError):
                execute_job(Job.from_request(_request("hurt")), journal,
                            retry_policy=FAST)
        assert journal.stats.commits == 0
        summaries = execute_job(Job.from_request(_request("retry")), journal,
                                retry_policy=FAST)
        assert summaries[0]["total_cycles"] > 0
        assert journal.stats.commits == 1
        assert journal.stats.resumed == 0

    def test_expired_deadline_raises_deadline_error(self, tmp_path):
        job = Job.from_request(_request())
        job.payload["deadline_s"] = 0.001
        job.submitted_ms = now_ms() - 10_000
        with pytest.raises(JobDeadlineExceeded):
            execute_job(job, RunJournal(tmp_path / "results"),
                        retry_policy=FAST)
