"""``repro progress``: the pure renderers plus the live client
against a thread-hosted server."""

import io
import socket
import threading
import time

import pytest

from repro.serve import server as server_module
from repro.serve.client import (
    progress_bar,
    render_progress_line,
    run_progress,
    split_url,
)

from .conftest import small_job


@pytest.fixture
def held_jobs(monkeypatch):
    """Jobs whose id starts with ``hold-`` block in their executor slot
    until the returned event is set (and then finish with no results);
    every other job runs for real. Set on teardown, so no executor
    thread outlives its test."""
    release = threading.Event()
    real = server_module.execute_job

    def gated(job, *args, **kwargs):
        if job.id.startswith("hold-"):
            release.wait(timeout=60)
            return []
        return real(job, *args, **kwargs)

    monkeypatch.setattr(server_module, "execute_job", gated)
    yield release
    release.set()


class TestHelpers:
    def test_split_url_accepts_bare_and_scheme_forms(self):
        assert split_url("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert split_url("http://10.0.0.2:8023") == ("10.0.0.2", 8023)
        assert split_url("localhost") == ("localhost", 8023)

    def test_progress_bar_shapes(self):
        assert progress_bar(0.0, width=10) == "[..........]   0.0%"
        assert progress_bar(50.0, width=10) == "[#####.....]  50.0%"
        assert progress_bar(100.0, width=10) == "[##########] 100.0%"
        assert progress_bar(150.0, width=10).endswith("100.0%")  # clamped
        assert "?" in progress_bar(None, width=10)


class TestRenderProgressLine:
    def test_progress_line(self):
        line = render_progress_line({"event": "progress", "data": {
            "records_done": 500, "records_total": 1000, "tier": "fast",
            "rate_rps": 1_500_000.0, "eta_s": 2.0}}, ansi=False)
        assert "50.0%" in line and "fast" in line
        assert "1.50M rec/s" in line and "eta 2s" in line

    def test_state_lines(self):
        assert render_progress_line(
            {"event": "state", "data": {"state": "done"}}, ansi=False,
        ) == "-- done"
        failed = render_progress_line(
            {"event": "state",
             "data": {"state": "failed", "error": "boom"}}, ansi=False)
        assert "failed" in failed and "boom" in failed

    @pytest.mark.parametrize("state", ["running", "done", "failed", "expired"])
    def test_ansi_state_lines_are_colored(self, state):
        line = render_progress_line(
            {"event": "state", "data": {"state": state}}, ansi=True)
        assert line.startswith("-- \x1b[")
        assert line.endswith(f"{state}\x1b[0m")

    def test_uncolored_state_stays_plain_under_ansi(self):
        assert render_progress_line(
            {"event": "state", "data": {"state": "queued"}}, ansi=True,
        ) == "-- queued"

    def test_progress_without_total_is_unknown(self):
        line = render_progress_line({"event": "progress", "data": {
            "records_done": 10, "tier": "columnar"}}, ansi=False)
        assert "?.?%" in line and "columnar" in line
        assert "eta" not in line

    def test_other_events_are_summarised_and_truncated(self):
        line = render_progress_line(
            {"event": "note", "data": {"text": "x" * 500}}, ansi=False)
        assert line.startswith("-- note: {")
        assert len(line) == len("-- note: ") + 100


class TestLiveClient:
    def test_run_progress_tails_to_done(self, serve_factory):
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("client-1"))
        out = io.StringIO()
        rc = run_progress("client-1", f"127.0.0.1:{handle.port}", out=out,
                          timeout_s=60)
        assert rc == 0
        text = out.getvalue()
        assert "-- queued" in text
        assert "-- running" in text
        assert "rec/s" in text  # at least one progress bar line
        assert text.rstrip().endswith("-- done")

    def test_run_progress_unknown_job_is_an_error(self, serve_factory):
        handle = serve_factory()
        out = io.StringIO()
        assert run_progress("ghost", f"127.0.0.1:{handle.port}", out=out,
                            timeout_s=10) == 1

    def test_run_progress_expired_job_exits_one(self, serve_factory,
                                                held_jobs):
        # the server's one executor slot is held, so the job's deadline
        # passes while it is still queued, however fast dispatch is
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("hold-1"))
        handle.wait_for_state("hold-1", states=("running",))
        handle.request("POST", "/v1/jobs",
                       small_job("client-3", deadline_s=0.001))
        time.sleep(0.05)
        held_jobs.set()
        handle.wait_for_state("client-3")
        out = io.StringIO()
        assert run_progress("client-3", f"127.0.0.1:{handle.port}", out=out,
                            timeout_s=30) == 1
        assert out.getvalue().splitlines() == [
            "-- queued", "-- expired (DeadlineExceeded)"]

    def test_run_progress_job_expiring_while_running_exits_one(
        self, serve_factory, held_jobs
    ):
        # the held job starts at once on the idle slot, then outlives
        # its deadline inside execute_job
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("hold-2", deadline_s=1.0))
        handle.wait_for_state("hold-2")
        out = io.StringIO()
        assert run_progress("hold-2", f"127.0.0.1:{handle.port}", out=out,
                            timeout_s=30) == 1
        assert out.getvalue().splitlines() == [
            "-- queued", "-- running", "-- expired (DeadlineExceeded)"]

    def test_run_progress_against_down_server_times_out(self, capsys):
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        out = io.StringIO()
        assert run_progress("any", f"127.0.0.1:{port}", out=out,
                            timeout_s=1.0) == 1
        assert out.getvalue() == ""
        assert "timed out" in capsys.readouterr().err

    def test_cli_entry_point_dispatches(self, serve_factory, capsys):
        from repro.cli import main

        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("client-2"))
        handle.wait_for_state("client-2")
        assert main(["progress", "client-2",
                     "--server", f"127.0.0.1:{handle.port}"]) == 0
        assert "-- done" in capsys.readouterr().out
