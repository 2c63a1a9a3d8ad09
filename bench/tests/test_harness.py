"""Harness tests: every workload end to end, on a short time budget.

Run with ``pytest bench/tests`` (about four minutes). Each workload runs
once untraced and once traced through the real ``python -m bench run``
entrypoint, on the same time-bounded path a full run takes, with
``--seconds`` cut to :data:`SECONDS` (so the sweeps make their minimum
rep counts). The metric contract, the wrappers' patch points and the
correctness checks are all exercised on real simulator output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bench import serve
from bench.__main__ import (
    END_TO_END,
    MIN_REPS,
    WORKLOADS,
    digest_failures,
    per_layer_units,
    result_line,
    run_serve_workload,
)

ROOT = Path(__file__).resolve().parents[2]
SEED = 3
SECONDS = 4

#: wrapper -> the workload whose traced rep must call it at least once
#: (a name patched where no caller looks it up silently reads 0)
EXERCISED_BY = {
    "workloads.build_workload": "frag-lru",
    "workloads.build_graph": "mt-threads",
    "columnar.encode": "frag-lru",
    "columnar.classify_lru_hits": "frag-lru",
    "residue.plan_walks": "frag-lru",
    "residue.apply_walk_plan": "frag-lru",
    "residue.page_table_pass": "frag-lru",
    "residue.l2_alias_conflict": "frag-lru",
    "residue.pwc_level_outcomes": "frag-lru",
    "machine.run": "frag-lru",
    "machine.run_epoch": "frag-lru",
    "machine.run_quantum": "frag-plru",
    "machine.promotion_tick": "frag-lru",
    "tlb.lookup": "frag-plru",
    "tlb.walk": "frag-plru",
    "vm.page_table_walk": "frag-plru",
    "vm.map_base_bulk": "frag-lru",
    "pcc.access_many": "frag-lru",
    "pcc.flush": "frag-lru",
    "os.promotion_tick": "frag-lru",
    "os.run_interval": "frag-lru",
    "os.dump_write": "frag-lru",
    "os.dump_read": "frag-lru",
    "os.handle_fault": "frag-plru",
    "os.handle_faults_bulk": "frag-lru",
    "os.fragment": "frag-lru",
    "metrics.export": "mt-threads",
    "journal.commit": "mt-threads",
    "journal.load": "frag-lru",
    "experiments.fan_out": "mt-threads",
    "serve.execute_job": "serve-mixed",
    "serve.job_store_save": "serve-mixed",
    "serve.try_admit": "serve-mixed",
}


def _run(tmp: Path, workload: str, trace: int) -> tuple[dict, dict]:
    out = tmp / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())[0]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return {(workload, trace): _run(tmp, workload, trace)
            for workload in WORKLOADS for trace in (0, 1)}


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_workloads_are_the_harness_workloads(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_are_correct(runs, workload):
    for trace in (0, 1):
        line, report = runs[(workload, trace)]
        assert line["correct"], report["problems"]
        assert line["failed"] == 0 and line["attempted"] > 0
        assert len(report["digests"]) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(runs, declared, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = runs[(workload, trace)][0]["metrics"]
        expected = {m["name"]: m["unit"] for m in declared[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    for name, value in runs[(workload, 0)][0]["metrics"].items():
        assert value["value"] > 0, name


def test_declarations_match_the_harness(declared):
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == per_layer_units()


@pytest.mark.parametrize("layer", sorted(EXERCISED_BY))
def test_wrapper_fires_on_its_workload(runs, layer):
    metrics = runs[(EXERCISED_BY[layer], 1)][0]["metrics"]
    assert metrics[f"{layer}.self_frac"]["value"] > 0


def test_setup_layers_are_reported_on_the_sweeps(runs):
    # inputs are built before the timed sweep, so these come from the
    # whole traced rep, as shares of its set-up time
    mt = runs[("mt-threads", 1)][0]["metrics"]
    assert mt["workloads.build_graph.calls"]["value"] > 0
    assert 0 < mt["workloads.build_graph.self_frac"]["value"] < 1
    lru = runs[("frag-lru", 1)][0]["metrics"]
    assert 0 < lru["workloads.build_workload.self_frac"]["value"] < 1
    assert lru["journal.load.hits"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_take_the_time_bounded_path(runs, workload):
    for trace in (0, 1):
        report = runs[(workload, trace)][1]
        if workload == "serve-mixed":
            # one probe before set-up, one after each load segment
            assert len(report["samples"]["probe_s"]) == 1 + serve.LOAD_SEGMENTS
        else:
            assert report["reps"] >= (2 if trace else MIN_REPS)
            assert len(report["samples"]["probe_s"]) == report["reps"] + 1


def test_replays_are_timed_apart_from_fresh_jobs(runs):
    for workload in WORKLOADS:
        metrics = runs[(workload, 0)][0]["metrics"]
        assert metrics["replay_ms"]["value"] < metrics["job_p50_ms"]["value"], workload
    report = runs[("serve-mixed", 0)][1]
    # every second job repeats an earlier spec
    assert abs(2 * report["samples"]["replays"] - report["samples"]["ops"]) <= serve.CONNECTIONS


@pytest.mark.parametrize("workload", ["frag-lru", "serve-mixed"])
def test_traced_spans_pass_the_inspector(runs, workload):
    trace_file = runs[(workload, 1)][1]["trace_file"]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "inspect", "--check", trace_file],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_workload_splits(runs):
    lru = runs[("frag-lru", 1)][0]["metrics"]
    plru = runs[("frag-plru", 1)][0]["metrics"]
    mt = runs[("mt-threads", 1)][0]["metrics"]
    serve = runs[("serve-mixed", 1)][0]["metrics"]
    assert lru["machine.run_epoch.frac"]["value"] > 0.5
    assert plru["columnar.classify_lru_hits.calls"]["value"] == 0
    assert plru["machine.columnar_plru_fallbacks"]["value"] > 0
    assert plru["machine.run_quantum.frac"]["value"] > 0.5
    assert mt["machine.columnar_mt_epochs"]["value"] > 0
    # every replay job the client sent in the traced phase is a
    # results-journal hit in the daemon
    replays = runs[("serve-mixed", 1)][1]["traced_replays"]
    assert replays > 0
    assert serve["serve.replayed_jobs"]["value"] == replays


def test_planted_digest_mismatch_fails_its_ops():
    reps = [{"digest": "a", "attempted": 15, "failed": 0} for _ in range(3)]
    reps.append({"digest": "b", "attempted": 15, "failed": 0})
    assert digest_failures(reps) == 15
    report = {"attempted": 60, "failed": digest_failures(reps),
              "e2e": {name: 1.0 for name in END_TO_END}}
    line = result_line(report, traced=False)
    assert not line["correct"]
    assert line["failed"] / line["attempted"] == 0.25


def test_daemon_killed_mid_load_fails_its_jobs(tmp_path, monkeypatch):
    class DoomedDaemon(serve.Daemon):
        """The serving daemon, killed a second into the load."""

        def __init__(self, argv_prefix, workdir, env, root):
            super().__init__(argv_prefix, workdir, env, root)
            if workdir.name == "load":
                threading.Timer(1.0, self.proc.kill).start()

    monkeypatch.setattr(serve, "Daemon", DoomedDaemon)
    report = run_serve_workload(SEED, tmp_path, seconds=SECONDS, traced=False)
    line = result_line(report, traced=False)
    assert 0 < line["failed"] <= line["attempted"]
    assert not line["correct"]
    assert any("client error" in problem for problem in report["problems"])


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "frag-lru",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
