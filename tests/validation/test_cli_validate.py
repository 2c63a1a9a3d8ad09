"""The `repro validate` subcommand: fuzz, replay, and defect self-test."""

import pytest

from repro import cli
from repro.validation.generators import generate_case
from repro.validation.shrink import iter_corpus, write_reproducer


class TestFuzz:
    def test_small_fuzz_run_passes(self, capsys):
        assert cli.main(["validate", "--fuzz", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 cases ok" in out
        assert "seeds 0..2" in out

    def test_seed_offsets_the_explored_range(self, capsys):
        assert cli.main(["validate", "--fuzz", "2", "--seed", "40"]) == 0
        assert "seeds 40..41" in capsys.readouterr().out


class TestReplay:
    def test_replay_of_passing_corpus_returns_zero(self, capsys, tmp_path):
        for seed in (0, 1):
            write_reproducer(generate_case(seed), None, tmp_path)
        assert cli.main(["validate", "--replay", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "replayed 2 corpus cases, 0 failing" in out

    def test_replay_of_empty_directory_is_a_no_op(self, capsys, tmp_path):
        assert cli.main(["validate", "--replay", str(tmp_path)]) == 0
        assert "no corpus files" in capsys.readouterr().out

    def test_replay_failure_is_nonzero_and_names_the_case(
        self, capsys, tmp_path
    ):
        from repro.validation import defects

        write_reproducer(generate_case(0), None, tmp_path)
        with defects.inject("region-count-drift"):
            assert cli.main(["validate", "--replay", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL case-" in out
        assert "1 failing" in out

    def test_corrupt_corpus_file_is_reported_and_skipped(
        self, capsys, tmp_path
    ):
        """A bad reproducer must not abort the replay of the others."""
        write_reproducer(generate_case(0), None, tmp_path)
        write_reproducer(generate_case(1), None, tmp_path)
        paths = list(iter_corpus(tmp_path))
        paths[0].write_text("{this is not json")
        assert cli.main(["validate", "--replay", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"BAD  {paths[0].name}" in out
        # the intact case was still replayed
        assert "ok   " in out
        assert "1 unreadable" in out

    def test_truncated_corpus_file_is_reported_and_skipped(
        self, capsys, tmp_path
    ):
        """Valid JSON missing the case schema is unreadable, not fatal."""
        write_reproducer(generate_case(0), None, tmp_path)
        bad = tmp_path / "case-truncated.json"
        bad.write_text('{"schema": "repro.case/v1"}')
        assert cli.main(["validate", "--replay", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "BAD  case-truncated.json" in out
        assert "1 unreadable" in out


class TestDefectSelfTest:
    @pytest.mark.parametrize(
        "defect", ["lost-fast-hits", "pcc-no-decay", "region-count-drift",
                   "leaked-base-pages", "slot-order-faults",
                   "span-core-alias", "walk-clock-at-start"]
    )
    def test_planted_defect_is_caught_and_shrunk(
        self, capsys, tmp_path, defect
    ):
        # one thread's span has a single fault window and no core offset
        extra = (["--min-threads", "2"]
                 if defect in ("slot-order-faults", "span-core-alias")
                 else [])
        assert (
            cli.main(
                [
                    "validate",
                    "--fuzz", "10",
                    *extra,
                    "--inject-defect", defect,
                    "--corpus-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"defect {defect!r} caught and shrunk" in out
        reproducers = list(iter_corpus(tmp_path))
        assert reproducers, "no reproducer written for the caught defect"
        from repro.validation.shrink import load_reproducer

        case, failure = load_reproducer(reproducers[0])
        assert case.total_accesses <= 200
        assert failure["domain"]

    def test_uncaught_defect_fails_the_self_test(self, capsys, monkeypatch):
        """A defect injection that is a no-op must flunk the self-test."""
        import contextlib

        from repro.validation import defects

        monkeypatch.setitem(
            defects.DEFECTS, "noop", contextlib.nullcontext
        )
        assert cli.main(["validate", "--fuzz", "2",
                         "--inject-defect", "noop"]) == 1
        assert "NOT caught" in capsys.readouterr().out

    def test_unknown_defect_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown defect"):
            cli.main(["validate", "--fuzz", "1",
                      "--inject-defect", "not-a-defect"])
