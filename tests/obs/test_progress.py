"""Live progress reporting: reporter mechanics, delivery paths, engine
integration, and the no-perturbation property the acceptance gate pins."""

import json

import pytest

from repro.obs import progress as progress_module
from repro.obs.progress import (
    PROGRESS_SCHEMA,
    ProgressReporter,
    SpoolSink,
    SpoolTailer,
    add_sink,
    current_label,
    progress_enabled,
    progress_for_run,
    progress_scope,
    read_spool,
    remove_sink,
    set_worker_label,
)


class FakeClock:
    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def reporter(sink, *, total=1000, cadence_ms=250, clock=None):
    return ProgressReporter(
        "job-x", total, [sink], cadence_ms=cadence_ms,
        clock=clock or FakeClock(),
    )


class TestReporter:
    def test_first_feed_point_is_immediately_due(self):
        clock = FakeClock()
        rep = reporter(lambda s: None, clock=clock)
        assert rep.due()

    def test_cadence_gates_subsequent_emits(self):
        clock = FakeClock()
        seen = []
        rep = reporter(seen.append, cadence_ms=250, clock=clock)
        rep.emit(done=10)
        assert not rep.due()
        clock.advance(0.1)
        assert not rep.due()
        clock.advance(0.2)
        assert rep.due()

    def test_snapshot_schema_and_sequence(self):
        seen = []
        rep = reporter(seen.append, cadence_ms=0)
        rep.emit(done=1, accesses=64, ticks=2, promotions=1, epochs=3,
                 tier="columnar")
        rep.finish(done=1000, tier="columnar")
        first, last = seen
        assert first["schema"] == PROGRESS_SCHEMA
        assert first["seq"] == 1 and last["seq"] == 2
        assert first["job"] == "job-x"
        assert first["records_total"] == 1000
        assert first["tier"] == "columnar"
        assert first["final"] is False and last["final"] is True

    def test_throughput_ewma_and_eta(self):
        clock = FakeClock()
        seen = []
        rep = reporter(seen.append, total=1000, cadence_ms=0, clock=clock)
        rep.emit(done=0)
        clock.advance(1.0)
        rep.emit(done=100)  # first interval: instantaneous rate
        assert seen[-1]["rate_rps"] == pytest.approx(100.0)
        assert seen[-1]["eta_s"] == pytest.approx(9.0)
        clock.advance(1.0)
        rep.emit(done=400)  # EWMA: 0.3*300 + 0.7*100
        assert seen[-1]["rate_rps"] == pytest.approx(160.0)

    def test_final_snapshot_has_no_eta(self):
        seen = []
        rep = reporter(seen.append, cadence_ms=0)
        rep.finish(done=1000)
        assert seen[-1]["eta_s"] is None

    def test_raising_sink_is_dropped_not_fatal(self):
        good = []

        def bad(snapshot):
            raise RuntimeError("sink exploded")

        rep = ProgressReporter("j", 10, [bad, good.append], cadence_ms=0,
                               clock=FakeClock())
        rep.emit(done=1)
        rep.emit(done=2)
        assert [s["records_done"] for s in good] == [1, 2]


class TestDeliveryPaths:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(progress_module.SPOOL_ENV, raising=False)
        assert not progress_enabled()
        assert progress_for_run(total=100) is None

    def test_scope_sink_and_label(self, monkeypatch):
        monkeypatch.delenv(progress_module.SPOOL_ENV, raising=False)
        seen = []
        with progress_scope("job-7", seen.append):
            rep = progress_for_run(total=10)
            assert rep is not None
            rep.emit(done=5)
        assert seen[0]["job"] == "job-7"

    def test_scopes_nest_innermost_wins(self):
        with progress_scope("outer"):
            with progress_scope("inner"):
                assert current_label() == "inner"
            assert current_label() == "outer"

    def test_worker_label_is_the_fallback(self):
        set_worker_label("pool-worker-3")
        try:
            assert current_label() == "pool-worker-3"
            with progress_scope("scoped"):
                assert current_label() == "scoped"
        finally:
            set_worker_label(None)

    def test_global_sink(self, monkeypatch):
        monkeypatch.delenv(progress_module.SPOOL_ENV, raising=False)
        seen = []
        sink = add_sink(seen.append)
        try:
            rep = progress_for_run(label="g", total=4)
            assert rep is not None
            rep.emit(done=4, final=True)
        finally:
            remove_sink(sink)
        assert seen and seen[0]["job"] == "g"
        assert progress_for_run() is None


class TestSpool:
    def test_round_trip(self, tmp_path):
        sink = SpoolSink(tmp_path)
        rep = ProgressReporter("spooled", 10, [sink], cadence_ms=0,
                               clock=FakeClock())
        rep.emit(done=3)
        rep.finish(done=10)
        snapshots = read_spool(tmp_path)
        assert [s["records_done"] for s in snapshots] == [3, 10]
        assert snapshots[-1]["final"] is True

    def test_tailer_is_incremental(self, tmp_path):
        sink = SpoolSink(tmp_path)
        rep = ProgressReporter("inc", 10, [sink], cadence_ms=0,
                               clock=FakeClock())
        tailer = SpoolTailer(tmp_path)
        rep.emit(done=1)
        assert len(tailer.poll()) == 1
        assert tailer.poll() == []
        rep.emit(done=2)
        assert [s["records_done"] for s in tailer.poll()] == [2]

    def test_tailer_leaves_partial_lines(self, tmp_path):
        path = tmp_path / "progress-run-1.jsonl"
        whole = json.dumps({"records_done": 1}) + "\n"
        path.write_text(whole + '{"records_done": 2')  # torn mid-append
        tailer = SpoolTailer(tmp_path)
        assert [s["records_done"] for s in tailer.poll()] == [1]
        with open(path, "a") as handle:
            handle.write("}\n")
        assert [s["records_done"] for s in tailer.poll()] == [2]

    def test_tailer_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "progress-run-2.jsonl"
        path.write_text('{"ok": 1}\nnot json at all\n{"ok": 2}\n')
        assert [s.get("ok") for s in read_spool(tmp_path)] == [1, 2]

    def test_spool_env_enables_progress(self, tmp_path, monkeypatch):
        monkeypatch.setenv(progress_module.SPOOL_ENV, str(tmp_path))
        assert progress_enabled()
        rep = progress_for_run(label="env", total=2)
        assert rep is not None
        rep.finish(done=2)
        assert read_spool(tmp_path)[0]["job"] == "env"


class TestEngineIntegration:
    @staticmethod
    def _run_quick(replacement="lru"):
        import copy

        from repro.engine.simulation import Simulator
        from repro.experiments.common import build_named_workload, config_for
        from repro.os.kernel import HugePagePolicy

        workload = build_named_workload(
            "BFS", graph_scale=8, proxy_accesses=20_000
        )
        config = config_for(workload)
        config = config.with_(tlb=config.tlb.with_replacement(replacement))
        simulator = Simulator(config, policy=HugePagePolicy.PCC)
        return simulator.run([copy.deepcopy(workload)])

    @pytest.mark.parametrize("replacement, tier", [
        ("lru", "columnar"),
        # the classifier declines tree-PLRU: every span replays through
        # the fast loop, so nothing may claim the columnar tier
        ("plru", "fast"),
    ])
    def test_run_reports_the_tier_that_ran(self, monkeypatch, replacement,
                                           tier):
        monkeypatch.setenv(progress_module.CADENCE_ENV, "0")
        seen = []
        with progress_scope("tier", seen.append):
            result = self._run_quick(replacement)
        assert seen[-1]["final"] is True
        assert seen[-1]["tier"] == tier
        assert result.metrics["meta"]["tier"] == tier
        if tier == "fast":
            assert {s["tier"] for s in seen} == {"fast"}
            assert all(s["epochs"] == 0 for s in seen)

    def test_engine_emits_progress_snapshots(self, monkeypatch):
        monkeypatch.setenv(progress_module.CADENCE_ENV, "0")
        seen = []
        with progress_scope("engine-job", seen.append):
            result = self._run_quick()
        assert len(seen) >= 2
        final = seen[-1]
        assert final["final"] is True
        assert final["job"] == "engine-job"
        assert final["records_done"] == final["records_total"]
        assert final["accesses"] == result.accesses
        # progress must not kick the run off the columnar tier
        assert final["tier"] == "columnar"
        assert all(s["seq"] == i + 1 for i, s in enumerate(seen))

    def test_progress_does_not_perturb_results(self, monkeypatch):
        baseline = self._run_quick()
        monkeypatch.setenv(progress_module.CADENCE_ENV, "0")
        with progress_scope("identity", lambda s: None):
            progressed = self._run_quick()
        assert progressed.total_cycles == baseline.total_cycles
        assert progressed.walks == baseline.walks
        assert progressed.promotions == baseline.promotions
        assert progressed.promotion_timeline == baseline.promotion_timeline

    def test_no_sink_means_no_reporter(self, monkeypatch):
        monkeypatch.delenv(progress_module.SPOOL_ENV, raising=False)
        result = self._run_quick()
        assert result.accesses > 0  # ran clean with progress fully off
