"""Inspector: schema validation plus golden-pinned terminal reports."""

import json

import pytest

from repro.metrics.registry import MetricsRegistry
from repro.obs import inspect as inspect_module
from repro.obs.tracer import TRACE_SCHEMA, SpanTracer


def _trace_doc() -> dict:
    return {
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "run_id": "cafe01234567"},
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1000, "tid": 0,
             "args": {"name": "repro"}},
            {"ph": "X", "name": "machine.sim_loop", "cat": "engine", "ts": 10.0,
             "dur": 5000.0, "pid": 1000, "tid": 1, "args": {"span": "1000:1"}},
            {"ph": "X", "name": "os_tick", "cat": "os", "ts": 20.0, "dur": 400.0,
             "pid": 1000, "tid": 1, "args": {"span": "1000:2", "parent": "1000:1"}},
            {"ph": "X", "name": "quantum", "cat": "engine", "ts": 500.0,
             "dur": 1800.5, "pid": 1000, "tid": 10,
             "args": {"span": "1000:3", "parent": "1000:1"}},
            {"ph": "i", "s": "t", "name": "pcc_state", "cat": "snapshot",
             "ts": 25.0, "pid": 1000, "tid": 1,
             "args": {"top_regions": [[1, 22, 240], [1, 23, 150]],
                      "tlb": {"L1-4K": 64}}},
            {"ph": "i", "s": "t", "name": "pcc_state", "cat": "snapshot",
             "ts": 425.0, "pid": 1000, "tid": 1,
             "args": {"top_regions": [[1, 23, 255], [2, 7, 90]],
                      "tlb": {"L1-4K": 64}}},
        ],
    }


def _metrics_export() -> dict:
    registry = MetricsRegistry()
    walk = registry.histogram("walk_latency_cycles", unit="cycles")
    walk.record_many([44.0] * 10 + [60.0] * 5 + [120.0])
    tick = registry.histogram("tick_duration_us", unit="us")
    tick.record_many([100.0, 200.0, 400.0])
    export = registry.export(meta={"policy": "pcc", "run_id": "cafe01234567"})
    return {"schema": "repro.metrics/v1", "run_id": "cafe01234567",
            "runs": [export]}


TRACE_GOLDEN = """\
trace  run cafe01234567  6 events, 3 spans, 1 process(es)
span census (count, total, max):
  machine.sim_loop         x1      total     5.00ms  max     5.00ms
  os_tick                  x1      total    400.0us  max    400.0us
  quantum                  x1      total     1.80ms  max     1.80ms
slowest spans:
   1. machine.sim_loop             5.00ms  at 10.0us (pid 1000, main)
   2. quantum                      1.80ms  at 500.0us (pid 1000, core-0)
   3. os_tick                     400.0us  at 20.0us (pid 1000, main)
hottest regions (peak PCC frequency):
  pid 1 region 0x17  freq 255
  pid 1 region 0x16  freq 240
  pid 2 region 0x7  freq 90"""

METRICS_GOLDEN = """\
metrics  run cafe01234567  1 run(s)
distributions:
  tick_duration_us: n=3 mean=233.3 p50=197.4 p95=197.4 p99=197.4 \
(min 100.0, max 400.0 us)
  walk_latency_cycles: n=16 mean=53.8 p50=44.9 p95=63.2 p99=63.8 \
(min 44.0, max 120.0 cycles)"""


class TestTraceValidation:
    def test_well_formed_trace_passes(self):
        assert inspect_module.validate_trace(_trace_doc()) == []

    def test_tracer_export_passes(self, tmp_path):
        tracer = SpanTracer(run_id="v" * 12, spool_dir=tmp_path)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.instant("pcc_state", cat="snapshot", top_regions=[], tlb={})
        tracer.flow_start("1:1")
        tracer.flow_end("1:1")
        assert inspect_module.validate_trace(tracer.export()) == []

    def test_wrong_schema_flagged(self):
        doc = _trace_doc()
        doc["otherData"]["schema"] = "something/else"
        assert any("schema" in e for e in inspect_module.validate_trace(doc))

    def test_missing_run_id_flagged(self):
        doc = _trace_doc()
        del doc["otherData"]["run_id"]
        assert any("run_id" in e for e in inspect_module.validate_trace(doc))

    def test_complete_event_without_dur_flagged(self):
        doc = _trace_doc()
        del doc["traceEvents"][1]["dur"]
        assert any("dur" in e for e in inspect_module.validate_trace(doc))

    def test_unknown_phase_flagged(self):
        doc = _trace_doc()
        doc["traceEvents"].append({"ph": "Z", "name": "?", "pid": 1, "ts": 0})
        assert any("phase" in e for e in inspect_module.validate_trace(doc))

    def test_span_id_required_in_args(self):
        doc = _trace_doc()
        doc["traceEvents"][1]["args"] = {}
        assert any("args.span" in e for e in inspect_module.validate_trace(doc))


class TestMetricsValidation:
    def test_aggregate_passes(self):
        assert inspect_module.validate_metrics(_metrics_export()) == []

    def test_single_run_export_passes(self):
        export = MetricsRegistry().export(meta={"policy": "pcc"})
        assert inspect_module.validate_metrics(export) == []

    def test_missing_counters_flagged(self):
        doc = _metrics_export()
        del doc["runs"][0]["counters"]
        assert any("counters" in e for e in inspect_module.validate_metrics(doc))

    def test_distribution_missing_buckets_flagged(self):
        doc = _metrics_export()
        del doc["runs"][0]["distributions"]["walk_latency_cycles"]["buckets"]
        errors = inspect_module.validate_metrics(doc)
        assert any("buckets" in e for e in errors)


def _events_doc() -> dict:
    """A job's SSE capture as ``repro progress`` records it."""
    return {"events": [
        {"event": "state", "id": 1,
         "data": {"job": "j1", "state": "queued"}},
        {"event": "state", "id": 2,
         "data": {"job": "j1", "state": "running"}},
        {"event": "message", "id": 3, "data": {"note": "heartbeat"}},
        {"event": "state", "id": 4,
         "data": {"job": "j1", "state": "done"}},
    ]}


class TestEventsValidation:
    def test_well_formed_capture_passes(self):
        doc = _events_doc()
        assert inspect_module.kind_of(doc) == "events"
        assert inspect_module.validate_document(doc) == []

    @pytest.mark.parametrize("name", ["degraded", "breaker"])
    def test_retired_event_kinds_are_flagged(self, name):
        doc = _events_doc()
        doc["events"].insert(2, {"event": name, "id": 3,
                                 "data": {"state": "open", "tags": []}})
        errors = inspect_module.validate_events(doc)
        assert errors == [f"events[2]: unknown event {name!r}"]

    def test_ids_must_increase(self):
        doc = _events_doc()
        doc["events"][3]["id"] = 2
        errors = inspect_module.validate_events(doc)
        assert errors == ["events[3]: id 2 does not increase (previous 3)"]

    def test_state_event_needs_a_known_state_and_a_job(self):
        doc = _events_doc()
        doc["events"][1]["data"] = {"state": "degraded"}
        errors = inspect_module.validate_events(doc)
        assert "events[1]: unknown state 'degraded'" in errors
        assert "events[1]: state event missing job" in errors

    def test_summary_tells_the_state_story(self):
        summary = inspect_module.summarize_events(_events_doc())
        assert summary["states"] == ["queued", "running", "done"]
        assert summary["terminal"] == "done"
        assert summary["census"] == {"message": 1, "state": 3}
        assert summary["progress_events"] == 0


class TestGoldenReports:
    def test_trace_report_is_golden(self):
        summary = inspect_module.summarize_trace(_trace_doc(), top=3)
        assert inspect_module.render(summary) == TRACE_GOLDEN

    def test_metrics_report_is_golden(self):
        summary = inspect_module.summarize_metrics(_metrics_export())
        assert inspect_module.render(summary) == METRICS_GOLDEN

    def test_unobserved_metrics_report_says_so(self):
        export = MetricsRegistry().export(meta={"run_id": "x" * 12})
        text = inspect_module.render(inspect_module.summarize_metrics(export))
        assert "none recorded" in text

    def test_hot_regions_take_peak_frequency_across_snapshots(self):
        summary = inspect_module.summarize_trace(_trace_doc())
        assert summary["hot_regions"][0] == [1, 23, 255]

    def test_distributions_merge_across_runs(self):
        doc = _metrics_export()
        doc["runs"].append(json.loads(json.dumps(doc["runs"][0])))
        summary = inspect_module.summarize_metrics(doc)
        assert summary["runs"] == 2
        assert summary["distributions"]["walk_latency_cycles"]["count"] == 32


class TestFileEntryPoints:
    def test_inspect_file_dispatches_by_shape(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(_trace_doc()))
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(json.dumps(_metrics_export()))
        assert inspect_module.inspect_file(trace_path)["kind"] == "trace"
        assert inspect_module.inspect_file(metrics_path)["kind"] == "metrics"

    def test_non_json_input_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not JSON"):
            inspect_module.load_document(path)

    def test_cli_inspect_check_golden(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(_metrics_export()))
        assert main(["inspect", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert f"inspect: {path}: schema OK" in out
        assert METRICS_GOLDEN in out

    def test_cli_inspect_check_fails_on_violation(self, tmp_path, capsys):
        from repro.cli import main

        doc = _metrics_export()
        del doc["runs"][0]["counters"]
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        assert main(["inspect", str(path), "--check"]) == 1
        assert "schema violation" in capsys.readouterr().err
