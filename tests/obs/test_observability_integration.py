"""End-to-end observability: bit-identical stats, merged worker spans.

The layer's contract is that observing a run changes nothing about the
run: enabling tracing (or ``REPRO_OBS``) must leave every simulation
statistic and the engine tier that ran bit-identical, add a
``distributions`` section to the metrics export that reads the same on
every tier, and produce a Perfetto-loadable trace whose spans nest
through the OS tick phases — including spans shipped back from fan-out
worker processes.
"""

import json
import os

import pytest

from repro.engine.machine import ENGINE_TIERS
from repro.engine.simulation import Simulator
from repro.experiments.common import (
    ExperimentScale,
    build_named_workload,
    clone_workload,
    config_for,
)
from repro.obs import tracer as tracer_module
from repro.obs.inspect import validate_trace
from repro.obs.observer import OBS_ENV
from repro.obs.progress import progress_scope
from repro.os.kernel import HugePagePolicy

TINY = ExperimentScale(name="tiny", graph_scale=10, proxy_accesses=25_000)


@pytest.fixture(autouse=True)
def _tracing_off_between_tests(monkeypatch):
    from repro.obs.runid import RUN_ID_ENV

    monkeypatch.delenv(OBS_ENV, raising=False)
    monkeypatch.delenv(RUN_ID_ENV, raising=False)
    tracer_module.disable()
    yield
    tracer_module.disable()


def _fingerprint(result) -> tuple:
    # Observation picks no tier, so every counter — the engine tier's
    # own fastpath.* instrumentation included — matches bit-for-bit.
    counters = result.metrics["counters"]
    return (
        result.policy,
        result.total_cycles,
        result.accesses,
        result.walks,
        result.l1_hits,
        result.l2_hits,
        result.promotions,
        result.demotions,
        tuple(result.promotion_timeline),
        json.dumps(counters, sort_keys=True),
    )


def _simulator(**options) -> tuple[Simulator, object]:
    workload = build_named_workload(
        "BFS", graph_scale=TINY.graph_scale, proxy_accesses=TINY.proxy_accesses
    )
    return Simulator(config_for(workload), policy=HugePagePolicy.PCC,
                     **options), workload


def _run(**options):
    simulator, workload = _simulator(**options)
    return simulator.run([clone_workload(workload)])


def _fastpath(result) -> dict:
    return {name: value for name, value in result.metrics["counters"].items()
            if ".fastpath." in name}


class TestBitIdentity:
    def test_traced_run_matches_untraced_run_exactly(self, tmp_path):
        baseline = _run()
        tracer_module.enable(spool_dir=tmp_path / "spool")
        try:
            traced = _run()
        finally:
            tracer_module.disable()
        assert _fingerprint(traced) == _fingerprint(baseline)

    def test_env_observed_run_matches_too(self, monkeypatch):
        baseline = _run()
        monkeypatch.setenv(OBS_ENV, "1")
        observed = _run()
        assert _fingerprint(observed) == _fingerprint(baseline)

    def test_disabled_observation_is_the_unobserved_path(self, monkeypatch):
        # No tracer and no REPRO_OBS: the run gets no observer. An
        # observed run executes the same columnar epochs: every engine
        # counter, the tier's own included, is equal.
        runs = []
        for observed in (False, True):
            if observed:
                monkeypatch.setenv(OBS_ENV, "1")
            simulator, workload = _simulator()
            seen = []
            with progress_scope("run", seen.append):
                result = simulator.run([clone_workload(workload)])
            assert (simulator.obs is not None) is observed
            assert seen[-1]["final"] is True
            assert seen[-1]["tier"] == "columnar"
            runs.append(result)
        unobserved, observed = runs
        assert _fastpath(unobserved)["core0.fastpath.columnar_epochs"] > 0
        assert _fastpath(observed) == _fastpath(unobserved)

    @pytest.mark.parametrize("observed", [False, True])
    def test_metrics_meta_names_the_tier_that_ran(self, monkeypatch,
                                                  observed):
        # Observation picks no tier: observed or not, the run and its
        # final progress snapshot name the columnar tier.
        if observed:
            monkeypatch.setenv(OBS_ENV, "1")
        simulator, workload = _simulator()
        seen = []
        with progress_scope("meta", seen.append):
            result = simulator.run([clone_workload(workload)])
        assert result.metrics["meta"]["tier"] == "columnar"
        assert seen[-1]["final"] is True
        assert seen[-1]["tier"] == "columnar"

    def test_unobserved_run_exports_empty_distributions(self):
        result = _run()
        assert result.metrics["distributions"] == {}

    def test_observed_run_populates_engine_histograms(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "1")
        result = _run()
        distributions = result.metrics["distributions"]
        assert distributions["walk_latency_cycles"]["count"] == result.walks
        assert distributions["tick_duration_us"]["count"] > 0
        assert distributions["promotion_lag_accesses"]["count"] > 0
        percentiles = distributions["walk_latency_cycles"]["percentiles"]
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]

    def test_every_tier_reports_the_same_histograms(self, monkeypatch):
        # Walks are clocked at their record's retired-access index, not
        # at the quantum or span that retired them.
        monkeypatch.setenv(OBS_ENV, "1")
        seen = []
        for tier in ENGINE_TIERS:
            result = _run(tier=tier)
            distributions = dict(result.metrics["distributions"])
            assert distributions["walk_latency_cycles"]["count"] == result.walks
            del distributions["tick_duration_us"]  # wall time
            seen.append(distributions)
        assert seen[0]["promotion_lag_accesses"]["count"] > 0
        assert seen[1:] == seen[:-1]

    def test_metrics_meta_carries_run_id(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_ID", "abcd12340001")
        result = _run()
        assert result.metrics["meta"]["run_id"] == "abcd12340001"


class TestTraceContents:
    @staticmethod
    def _spans(tmp_path, **options) -> dict:
        tracer = tracer_module.enable(spool_dir=tmp_path / "spool")
        try:
            _run(**options)
            doc = tracer.export()
        finally:
            tracer_module.disable()
        assert validate_trace(doc) == []
        by_name = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                by_name.setdefault(event["name"], []).append(event)
        return by_name

    def test_span_taxonomy_nests_through_tick_phases(self, tmp_path):
        by_name = self._spans(tmp_path)
        for required in ("machine.sim_loop", "epoch", "os_tick", "tick.scan",
                         "tick.rank", "tick.promote", "machine.collect"):
            assert required in by_name, f"missing span {required!r}"
        loop_id = by_name["machine.sim_loop"][0]["args"]["span"]
        # in-loop ticks nest under the sim loop; the final drain tick
        # fires after the loop closes and is legitimately parentless
        in_loop = [t for t in by_name["os_tick"] if not t["args"]["final"]]
        assert in_loop
        assert all(t["args"]["parent"] == loop_id for t in in_loop)
        scan_parents = {t["args"]["parent"] for t in by_name["tick.scan"]}
        tick_ids = {t["args"]["span"] for t in by_name["os_tick"]}
        assert scan_parents <= tick_ids
        # columnar spans ride per-core lanes, off the main lane
        assert {e["tid"] for e in by_name["epoch"]} == {10}
        for epoch in by_name["epoch"]:
            assert epoch["cat"] == "engine"
            assert epoch["args"]["slots"] == 1
            assert epoch["args"]["records"] > 0

    def test_quantum_spans_ride_core_lanes_off_columnar(self, tmp_path):
        by_name = self._spans(tmp_path, tier="fast")
        assert "epoch" not in by_name
        assert {e["tid"] for e in by_name["quantum"]} == {10}

    def test_pcc_snapshots_carry_topk_and_tlb(self, tmp_path):
        tracer = tracer_module.enable(spool_dir=tmp_path / "spool")
        try:
            _run()
            doc = tracer.export()
        finally:
            tracer_module.disable()
        snapshots = [e for e in doc["traceEvents"]
                     if e["ph"] == "i" and e["name"] == "pcc_state"]
        assert snapshots
        args = snapshots[-1]["args"]
        assert args["top_regions"], "expected ranked PCC regions"
        assert all(len(row) == 3 for row in args["top_regions"])
        assert args["tlb"], "expected TLB occupancy map"


def _traced_task(x: int) -> int:
    return x * x


class TestFanOutTracing:
    def test_worker_spans_merge_into_parent_trace(self, tmp_path, monkeypatch):
        from repro.experiments.parallel import fan_out

        monkeypatch.setenv("REPRO_RUN_ID", "feed43210001")
        tracer = tracer_module.enable(spool_dir=tmp_path / "spool")
        try:
            results = fan_out(_traced_task, [1, 2, 3, 4], jobs=2)
            doc = tracer.export()
        finally:
            tracer_module.disable()
        assert results == [1, 4, 9, 16]
        assert validate_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        fanout = [e for e in spans if e["name"] == "fanout"]
        tasks = [e for e in spans if e["name"] == "fanout.task"]
        assert len(fanout) == 1 and len(tasks) == 4
        parent_pid = os.getpid()
        assert {e["pid"] for e in tasks} - {parent_pid}, (
            "expected at least one task span from a worker process"
        )
        fanout_id = fanout[0]["args"]["span"]
        assert all(t["args"]["parent"] == fanout_id for t in tasks)

    def test_serial_fan_out_traces_without_spool(self):
        from repro.experiments.parallel import fan_out

        tracer = tracer_module.enable()
        try:
            results = fan_out(_traced_task, [3], jobs=1)
            doc = tracer.export()
        finally:
            tracer_module.disable()
        assert results == [9]
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"fanout", "fanout.task"} <= names

    def test_fan_out_wall_time_histogram_recorded(self, monkeypatch):
        from repro.experiments.parallel import fan_out
        from repro.resilience import bus

        monkeypatch.setenv(OBS_ENV, "1")
        before = bus.registry().histogram("fanout.task_wall_us", unit="us").count
        fan_out(_traced_task, [5, 6], jobs=1)
        after = bus.registry().histogram("fanout.task_wall_us", unit="us").count
        assert after == before + 2


class TestRunIdCorrelation:
    def test_journal_shards_record_the_invocations_run_id(self, tmp_path,
                                                          monkeypatch):
        from repro.resilience.journal import RunJournal

        monkeypatch.setenv("REPRO_RUN_ID", "beef56780001")
        journal = RunJournal(tmp_path)
        key = journal.key_for(_traced_task, 9)
        journal.commit(key, 81)
        assert journal.run_id_of(key) == "beef56780001"
        assert journal.load(key) == 81

    def test_collector_and_trace_agree_on_run_id(self, tmp_path, monkeypatch):
        from repro.metrics import collecting

        monkeypatch.setenv("REPRO_RUN_ID", "dead90120001")
        tracer = tracer_module.enable()
        try:
            with collecting() as collector:
                _run()
            doc = tracer.export()
        finally:
            tracer_module.disable()
        assert collector.export()["run_id"] == "dead90120001"
        assert doc["otherData"]["run_id"] == "dead90120001"
        assert collector.runs[0]["meta"]["run_id"] == "dead90120001"

    def test_resilience_publications_carry_run_id(self, monkeypatch):
        from repro.metrics import collecting
        from repro.resilience import bus

        monkeypatch.setenv("REPRO_RUN_ID", "face34560001")
        with collecting() as collector:
            bus.publish()
        assert collector.runs[0]["meta"]["run_id"] == "face34560001"
        assert collector.runs[0]["meta"]["component"] == "resilience"
