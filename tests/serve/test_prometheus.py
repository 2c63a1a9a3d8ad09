"""Prometheus exposition: renderer/parser unit contract plus the live
``/metrics`` endpoint, the daemon's only metrics surface."""

import http.client
import math

import pytest

from repro.metrics.prometheus import metric_name, parse_exposition, render
from repro.obs.histo import Histogram

from .conftest import small_job


class TestRender:
    def test_counters_get_total_suffix_and_type(self):
        text = render(counters={"serve.requests": 7})
        families = parse_exposition(text)
        family = families["repro_serve_requests_total"]
        assert family["type"] == "counter"
        assert family["samples"] == [("repro_serve_requests_total", {}, 7.0)]

    def test_metric_name_mapping(self):
        assert metric_name("serve.sse.streams") == "repro_serve_sse_streams"
        assert metric_name("weird-name.x") == "repro_weird_name_x"

    def test_labeled_gauges(self):
        text = render(gauges={
            "serve.job_states": [
                ({"state": "done"}, 2), ({"state": "failed"}, 0),
            ],
            "serve.queue_depth": 3,
        })
        families = parse_exposition(text)
        samples = families["repro_serve_job_states"]["samples"]
        assert (("repro_serve_job_states", {"state": "done"}, 2.0)
                in samples)
        assert families["repro_serve_queue_depth"]["samples"][0][2] == 3.0

    def test_histogram_native_buckets(self):
        histogram = Histogram("walk_latency", unit="cycles")
        histogram.record_many([-1.0, 3.0, 50.0, 50.0, 4000.0])
        text = render(histograms={"walk_latency": histogram})
        families = parse_exposition(text)
        family = families["repro_walk_latency"]
        assert family["type"] == "histogram"
        buckets = [(labels["le"], value) for name, labels, value
                   in family["samples"] if name.endswith("_bucket")]
        assert buckets[0][0] == "0"  # underflow bucket maps to le="0"
        assert buckets[-1] == ("+Inf", 5.0)
        values = [value for _, value in buckets]
        assert values == sorted(values)  # cumulative
        count = [value for name, _, value in family["samples"]
                 if name.endswith("_count")][0]
        assert count == 5.0

    def test_info_gauge(self):
        text = render(info={"run_id": "abc123"})
        families = parse_exposition(text)
        name, labels, value = families["repro_serve_info"]["samples"][0]
        assert labels == {"run_id": "abc123"} and value == 1.0

    def test_label_escaping_round_trips(self):
        text = render(gauges={
            "g": [({"tenant": 'we"ird\\ten\nant'}, 1)],
        })
        families = parse_exposition(text)
        _, labels, _ = families["repro_g"]["samples"][0]
        assert labels["tenant"] == 'we"ird\\ten\nant'

    def test_special_values(self):
        text = render(gauges={"a": math.inf, "b": math.nan})
        families = parse_exposition(text)
        assert families["repro_a"]["samples"][0][2] == math.inf
        assert math.isnan(families["repro_b"]["samples"][0][2])


class TestParserStrictness:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_exposition("orphan_metric 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_exposition(
                "# TYPE x gauge\nx notanumber\n")

    def test_malformed_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            parse_exposition(
                '# TYPE x gauge\nx{key=unquoted} 1\n')

    def test_histogram_without_inf_bucket_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="10"} 1\n'
            "h_sum 5\nh_count 1\n"
        )
        with pytest.raises(ValueError, match="\\+Inf"):
            parse_exposition(text)

    def test_histogram_decreasing_buckets_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="10"} 5\n'
            'h_bucket{le="20"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 5\nh_count 5\n"
        )
        with pytest.raises(ValueError, match="decrease"):
            parse_exposition(text)

    def test_histogram_count_mismatch_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 5\nh_count 4\n"
        )
        with pytest.raises(ValueError, match="_count"):
            parse_exposition(text)


class TestLiveEndpoints:
    def _scrape(self, port: int) -> tuple[int, str, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            return (response.status,
                    response.read().decode(),
                    dict(response.getheaders()))
        finally:
            conn.close()

    def test_metrics_exposition_parses_with_buckets(self, serve_factory):
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("prom-1"))
        handle.wait_for_state("prom-1")
        status, text, headers = self._scrape(handle.port)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = parse_exposition(text)
        assert "repro_serve_info" in families
        gauges = {name for name, family in families.items()
                  if family["type"] == "gauge"}
        assert "repro_serve_queue_depth" in gauges
        histograms = [name for name, family in families.items()
                      if family["type"] == "histogram"]
        assert histograms, "no native _bucket families exposed"
        counters = {name for name, family in families.items()
                    if family["type"] == "counter"}
        assert any(name.startswith("repro_engine_") for name in counters)

    def test_counters_only_grow_between_scrapes(self, serve_factory):
        """Rates come from the ``_total`` counters: across two scrapes
        no counter goes backwards and the completed-job count advances."""
        handle = serve_factory()
        handle.request("POST", "/v1/jobs", small_job("prom-2"))
        handle.wait_for_state("prom-2")
        before = handle.counters()
        handle.request("POST", "/v1/jobs", small_job("prom-3", seed=1))
        handle.wait_for_state("prom-3")
        after = handle.counters()
        assert all(name.endswith("_total") for name in after)
        assert all(after.get(name, 0.0) >= value
                   for name, value in before.items())
        assert after["repro_resilience_serve_completed_total"] == \
            before["repro_resilience_serve_completed_total"] + 1

    def test_span_counters_sum_over_served_jobs(self, serve_factory,
                                                 monkeypatch):
        """Every columnar span of a tree-PLRU job replays, so its PLRU
        fallbacks reach ``/metrics``; all four span counters appear."""
        from dataclasses import replace

        from repro.serve.protocol import JobRequest

        original = JobRequest.to_specs
        monkeypatch.setattr(
            JobRequest, "to_specs",
            lambda self: [replace(spec, tlb_replacement="plru")
                          for spec in original(self)],
        )
        handle = serve_factory()
        before = handle.counters()
        handle.request("POST", "/v1/jobs", small_job("prom-plru"))
        handle.wait_for_state("prom-plru")
        after = handle.counters()
        names = [f"repro_engine_columnar_{short}_total" for short in
                 ("epochs", "mt_epochs", "fallbacks", "plru_fallbacks")]
        assert set(names) <= set(after)
        plru = "repro_engine_columnar_plru_fallbacks_total"
        assert after[plru] > before.get(plru, 0.0)

    def test_removed_json_metrics_route_is_a_404(self, serve_factory):
        handle = serve_factory()
        # the JSON alias of /metrics that earlier daemons served
        status, doc, _ = handle.request("GET", "/v1" + "/metrics")
        assert status == 404
        assert "no route" in doc["error"]
