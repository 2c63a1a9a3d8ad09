"""Documentation consistency: what the docs promise must exist."""

import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]


class TestReadme:
    def test_required_files_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/ARCHITECTURE.md", "docs/FAQ.md", "Makefile"):
            assert (ROOT / name).exists(), name

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.finditer(r"`examples/(\w+\.py)`", readme):
            assert (ROOT / "examples" / match.group(1)).exists(), match.group(1)

    def test_readme_benchmark_paths_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", readme):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), match.group(1)

    def test_readme_cli_subcommands_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                subcommands |= set(action.choices)
        readme = (ROOT / "README.md").read_text()
        for match in re.finditer(r"python -m repro (\w+)", readme):
            assert match.group(1) in subcommands, match.group(1)

    def test_doc_paths_exist(self):
        """Every ``docs/<name>.md`` a doc or a source file names exists,
        with that exact case."""
        present = {path.name for path in (ROOT / "docs").glob("*.md")}
        sources = [ROOT / "README.md", ROOT / "DESIGN.md",
                   ROOT / "EXPERIMENTS.md",
                   *sorted((ROOT / "docs").glob("*.md")),
                   *sorted((ROOT / "src").rglob("*.py"))]
        for source in sources:
            text = source.read_text()
            for match in re.finditer(r"docs/([\w.-]+\.md)", text):
                assert match.group(1) in present, (
                    f"{source.relative_to(ROOT)} names docs/{match.group(1)}"
                )


class TestDesignDoc:
    def test_design_module_references_exist(self):
        """Every `repro.x.y` module path DESIGN.md names must import."""
        import importlib

        design = (ROOT / "DESIGN.md").read_text()
        for match in set(re.finditer(r"`repro\.([\w.]+)`", design)):
            module_path = "repro." + match.group(1)
            try:
                importlib.import_module(module_path)
            except ImportError:
                # allow attribute references like repro.core.pcc.PCC
                parent, _, _ = module_path.rpartition(".")
                importlib.import_module(parent)

    def test_design_bench_references_exist(self):
        design = (ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", design):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), (
                match.group(1)
            )


class TestExperimentsDoc:
    def test_experiments_bench_references_exist(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for match in re.finditer(r"\((bench_\w+\.py)\)", text):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), (
                match.group(1)
            )

    def test_fig7_table_matches_scorecard(self):
        """The Fig. 7 table's measured cells are the committed
        scorecard's numbers: geomeans from its ``geomean:`` line, the
        per-app HawkEye ratios and demotion gaps from its rows."""
        scorecard = (ROOT / "benchmarks/results/SCORECARD.txt").read_text()
        section = scorecard[scorecard.index("Fig. 7 — "):]
        rows = {}
        for line in section.splitlines()[3:]:
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) != 5:
                break
            rows[cells[0]] = [float(cell.rstrip("x")) for cell in cells[1:]]
        assert list(rows) == ["BFS", "SSSP", "PR"]
        geo = re.search(
            r"geomean: PCC ([\d.]+)x \(vs HawkEye ([\d.]+)x, "
            r"vs Linux ([\d.]+)x\)", section)
        pcc, hawkeye, linux = (float(value) for value in geo.groups())
        demote = math.prod(row[3] for row in rows.values()) ** (1 / 3)
        expected = {
            "PCC over baseline": [pcc],
            "PCC over HawkEye": [hawkeye] + [
                round(row[2] / row[0], 2) for row in rows.values()],
            "PCC over Linux": [linux],
            "PCC+demotion": [round(demote, 2), pcc,
                             round(demote - pcc, 2)] + [
                round(row[3] - row[2], 2) for row in rows.values()],
        }

        text = (ROOT / "EXPERIMENTS.md").read_text()
        table = text[text.index("| quantity", text.index("## Fig. 7 ")):]
        table = table[:table.index("\n\n")]
        measured = {}
        for line in table.splitlines()[2:]:
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            measured[cells[0]] = [
                float(number.replace("−", "-"))
                for number in re.findall(r"[−-]?\d+\.\d+", cells[2])
            ]
        assert list(measured) == list(expected)
        for quantity, numbers in expected.items():
            assert measured[quantity] == pytest.approx(numbers, abs=0.005), (
                quantity
            )
