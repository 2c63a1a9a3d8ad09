"""``repro top`` / ``repro progress``: pure renderers plus the live
clients against a thread-hosted server."""

import io

from repro.metrics.prometheus import parse_exposition, render
from repro.obs.runid import current_run_id
from repro.serve.top import (
    progress_bar,
    render_dashboard,
    render_progress_line,
    run_progress,
    run_top,
    split_url,
)

from .conftest import small_job


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


class TestRenderDashboard:
    def _docs(self):
        registry = {
            "jobs": 3,
            "queue_depth": 1,
            "states": {"done": 2, "running": 1},
            "tenants": {"acme": 1},
            "running_detail": [{
                "id": "job-42",
                "progress": {"pct": 40.0, "tier": "columnar",
                             "rate_rps": 2_000_000.0, "eta_s": 3.0,
                             "seq": 9},
            }],
        }
        families = parse_exposition(render(
            counters={"resilience.serve.completed": 2},
            gauges={"serve.running": 1},
            rates={"10s": {"resilience.serve.requests": 3.0},
                   "1m": {"resilience.serve.requests": 0.5}},
            info={"run_id": "feedface0123"},
        ))
        return registry, families

    def test_plain_frame_has_every_section(self):
        registry, metrics = self._docs()
        frame = render_dashboard(registry, metrics, ansi=False)
        assert "\x1b[" not in frame
        assert "run feedface0123" in frame
        assert "queue 1" in frame
        assert "running 1" in frame
        assert "job-42" in frame and "40.0%" in frame
        assert "columnar" in frame and "2.00M rec/s" in frame
        assert "eta 3s" in frame
        assert "requests:0.5/s" in frame  # the 1m window only
        assert "requests:3/s" not in frame
        assert "tenant backlog: acme:1" in frame

    def test_ansi_frame_colors_states(self):
        registry, metrics = self._docs()
        frame = render_dashboard(registry, metrics, ansi=True)
        assert "\x1b[32mdone\x1b[0m" in frame

    def test_idle_dashboard(self):
        frame = render_dashboard({}, {}, ansi=False)
        assert "(idle)" in frame


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


class TestLiveClients:
    def test_run_top_once_renders_a_live_server(self, serve_factory):
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("top-1"))
        handle.wait_for_state("top-1")
        out = io.StringIO()
        assert run_top(f"127.0.0.1:{handle.port}", once=True, out=out) == 0
        frame = out.getvalue()
        assert "repro top" in frame
        assert "\x1b[" not in frame  # --once means no ANSI
        assert f"run {current_run_id()}" in frame  # read from /metrics

    def test_run_top_against_down_server_fails_cleanly(self):
        out = io.StringIO()
        assert run_top("127.0.0.1:1", once=True, out=out) == 1

    def test_run_progress_tails_to_done(self, serve_factory):
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("top-2"))
        out = io.StringIO()
        rc = run_progress("top-2", f"127.0.0.1:{handle.port}", out=out,
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

    def test_cli_entry_points_dispatch(self, serve_factory, capsys):
        from repro.cli import main

        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("top-3"))
        handle.wait_for_state("top-3")
        assert main(["progress", "top-3",
                     "--server", f"127.0.0.1:{handle.port}"]) == 0
        assert "-- done" in capsys.readouterr().out
        assert main(["top", f"127.0.0.1:{handle.port}", "--once"]) == 0
        assert "repro top" in capsys.readouterr().out
