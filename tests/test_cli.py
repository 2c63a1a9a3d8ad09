"""Tests for the command-line interface."""

import pytest

from repro import cli


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_scale_option(self):
        args = cli.build_parser().parse_args(["--scale", "full", "fig2"])
        assert args.scale == "full"
        assert args.experiment == "fig2"

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["--scale", "huge", "fig2"])

    def test_helpers(self):
        assert cli._split("a, b,") == ["a", "b"]
        assert cli._split(None) is None
        assert cli._int_tuple("1,2", (9,)) == (1, 2)
        assert cli._int_tuple(None, (9,)) == (9,)

    def test_resume_flag(self):
        assert cli.build_parser().parse_args(["--resume", "fig6"]).resume
        assert not cli.build_parser().parse_args(["fig6"]).resume

    def test_help_renders(self):
        text = cli.build_parser().format_help()
        assert "90%-fragmented comparison" in text
        assert "progress" in text
        assert "{fig1," in text and ",top," not in text

    def test_progress_defaults(self):
        args = cli.build_parser().parse_args(["progress", "job-1"])
        assert args.job_id == "job-1"
        assert args.server == "127.0.0.1:8023"
        assert args.timeout == 600.0

    def test_removed_dashboard_subcommand_is_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(["top"])
        assert exit_info.value.code == 2


class TestResumeWiring:
    def test_main_defaults_the_journal_env(self, monkeypatch):
        """A CLI run journals by default so --resume works after a kill."""
        import os

        from repro.resilience.journal import JOURNAL_ENV, default_journal_dir

        monkeypatch.delenv(JOURNAL_ENV, raising=False)
        monkeypatch.setattr(cli, "_dispatch", lambda args, scale: 0)
        assert cli.main(["fig2"]) == 0
        assert os.environ[JOURNAL_ENV] == str(default_journal_dir())

    def test_explicit_journal_env_wins(self, monkeypatch):
        import os

        from repro.resilience.journal import JOURNAL_ENV

        monkeypatch.setenv(JOURNAL_ENV, "off")
        monkeypatch.setattr(cli, "_dispatch", lambda args, scale: 0)
        assert cli.main(["fig2"]) == 0
        assert os.environ[JOURNAL_ENV] == "off"

    def test_resume_reaches_the_sweep(self, monkeypatch):
        """--resume is threaded through dispatch into the figure runner."""
        seen = {}

        def fake_run(scale, jobs=None, resume=False):
            seen["resume"] = resume
            return []

        from repro.experiments import fig6

        monkeypatch.setattr(fig6, "run", fake_run)
        monkeypatch.setattr(fig6, "render", lambda rows: "ok")
        assert cli.main(["--resume", "fig6"]) == 0
        assert seen["resume"] is True


class TestExecution:
    """End-to-end CLI runs at miniature scale via monkeypatched QUICK."""

    @pytest.fixture(autouse=True)
    def tiny_quick(self, monkeypatch):
        from repro.experiments.common import ExperimentScale

        tiny = ExperimentScale(name="tiny", graph_scale=9, proxy_accesses=20_000)
        monkeypatch.setattr(cli, "_scale_of", lambda name: tiny)

    def test_compare(self, capsys):
        assert cli.main(["compare", "--app", "BFS"]) == 0
        out = capsys.readouterr().out
        assert "4KB baseline" in out
        assert "PCC" in out

    def test_metrics_out_writes_aggregate(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert cli.main(
            ["--metrics-out", str(path), "compare", "--app", "BFS"]
        ) == 0
        assert "metrics: 5 runs" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.metrics/v1"
        # compare sweeps five policies -> five runs, one export each
        assert len(doc["runs"]) == 5
        policies = [run["meta"]["policy"] for run in doc["runs"]]
        assert policies[0] == "none" and "pcc" in policies
        for run in doc["runs"]:
            assert run["schema"] == "repro.metrics/v1"
            assert "core0.tlb.L1-4K.hits" in run["counters"]

    def test_fig1_subset(self, capsys):
        assert cli.main(["fig1", "--apps", "mcf"]) == 0
        assert "mcf" in capsys.readouterr().out

    def test_fig5_subset(self, capsys):
        assert cli.main(["fig5", "--apps", "BFS", "--budgets", "0,100"]) == 0
        assert "BFS" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert cli.main(["fig7", "--apps", "BFS"]) == 0
        assert "fragmented" in capsys.readouterr().out

    def test_fig9_bad_pair(self):
        with pytest.raises(SystemExit, match="exactly two"):
            cli.main(["fig9", "--pair", "PR"])

    def test_table1(self, capsys):
        assert cli.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out

    def test_stats(self, capsys):
        assert cli.main(["stats", "--app", "mcf"]) == 0
        out = capsys.readouterr().out
        assert "accesses" in out
        assert "VMA" in out

    def test_record_and_replay(self, capsys, tmp_path):
        schedule_path = str(tmp_path / "sched.jsonl")
        assert cli.main(["record", "--app", "BFS", "--out", schedule_path]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        assert cli.main(
            ["replay", "--app", "BFS", "--schedule", schedule_path]
        ) == 0
        out = capsys.readouterr().out
        assert "promotions" in out
        assert "speedup" in out

    def test_replay_under_fragmentation(self, capsys, tmp_path):
        schedule_path = str(tmp_path / "sched.jsonl")
        cli.main(["record", "--app", "BFS", "--out", schedule_path])
        capsys.readouterr()
        assert cli.main(
            ["replay", "--app", "BFS", "--schedule", schedule_path,
             "--fragmentation", "0.9"]
        ) == 0
        assert "TLB miss" in capsys.readouterr().out

    def test_scorecard(self, capsys):
        assert cli.main(["scorecard"]) == 0
        out = capsys.readouterr().out
        assert "PCC reproduction scorecard" in out
