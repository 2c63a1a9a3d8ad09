"""Run inspector: summarize and validate observability artifacts.

``repro inspect <file>`` accepts either artifact the pipeline writes —

* a **metrics** file (``repro.metrics/v1``): one registry export or the
  collector aggregate ``--metrics-out`` produces, and
* a **trace** file (``repro.trace/v1``): the Chrome trace-event JSON
  ``--trace-out`` produces —

plus the two live-telemetry artifacts the streaming plane produces —

* a **progress** spool or snapshot (``repro.progress/v1``): the JSONL
  files ``REPRO_PROGRESS_SPOOL`` collects, or one snapshot object, and
* an **events** capture: SSE events recorded off a
  ``/v1/jobs/<id>/events`` stream (as the serve load harness writes
  them), ``{"events": [{"id", "event", "data"}, ...]}`` —

and prints a terminal report: slowest spans, hottest PCC regions (from
the sampled ``pcc_state`` snapshots), and p50/p95/p99 for every
recorded distribution. ``--check`` additionally validates the document
against its schema and fails on any violation, which is what CI runs
over freshly produced artifacts.

All summaries are plain dicts (JSON-safe) so tests can golden-pin the
rendered text without touching live simulations.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.machine import ENGINE_TIERS
from repro.obs.histo import Histogram
from repro.obs.progress import PROGRESS_SCHEMA
from repro.obs.tracer import TRACE_SCHEMA, thread_lane_name

#: Metrics schema accepted by the inspector (see repro.metrics.registry).
METRICS_SCHEMA = "repro.metrics/v1"

#: Event phases the trace validator accepts (the subset the tracer emits).
_KNOWN_PHASES = {"X", "i", "M", "s", "f"}

#: SSE event names the serving daemon publishes.
_KNOWN_EVENTS = {"progress", "state", "message"}

#: ``state`` event payload values (see repro.serve.lifecycle).
_KNOWN_STATES = {"queued", "running", "done", "failed", "expired"}


# ----------------------------------------------------------------------
# validation


def validate_trace(doc) -> list[str]:
    """Schema violations in a trace document (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["trace document is not a JSON object"]
    other = doc.get("otherData")
    if not isinstance(other, dict) or other.get("schema") != TRACE_SCHEMA:
        errors.append(f"otherData.schema is not {TRACE_SCHEMA!r}")
    elif not other.get("run_id"):
        errors.append("otherData.run_id is missing")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return errors + ["traceEvents is not a list"]
    for index, event in enumerate(events):
        if len(errors) >= 20:
            errors.append("... further errors suppressed")
            break
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where}: missing pid")
        if ph != "M":
            if not isinstance(event.get("ts"), (int, float)):
                errors.append(f"{where}: missing ts")
        if ph == "X":
            if not isinstance(event.get("dur"), (int, float)):
                errors.append(f"{where}: X event missing dur")
            args = event.get("args")
            if not isinstance(args, dict) or "span" not in args:
                errors.append(f"{where}: X event missing args.span")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}: instant event missing scope")
        if ph in ("s", "f") and "id" not in event:
            errors.append(f"{where}: flow event missing id")
    return errors


def _validate_one_run(doc, where: str, errors: list[str]) -> None:
    if not isinstance(doc, dict):
        errors.append(f"{where}: not an object")
        return
    if doc.get("schema") != METRICS_SCHEMA:
        errors.append(f"{where}: schema is not {METRICS_SCHEMA!r}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{where}: counters is not an object")
    elif any(not isinstance(v, int) for v in counters.values()):
        errors.append(f"{where}: non-integer counter value")
    if not isinstance(doc.get("samples"), list):
        errors.append(f"{where}: samples is not a list")
    distributions = doc.get("distributions")
    if not isinstance(distributions, dict):
        errors.append(f"{where}: distributions is not an object")
        return
    for name, dist in distributions.items():
        if not isinstance(dist, dict):
            errors.append(f"{where}: distribution {name!r} is not an object")
            continue
        for key in ("count", "sum", "percentiles", "buckets"):
            if key not in dist:
                errors.append(f"{where}: distribution {name!r} missing {key!r}")


def validate_metrics(doc) -> list[str]:
    """Schema violations in a metrics document (single run or aggregate)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["metrics document is not a JSON object"]
    if "runs" in doc:
        if doc.get("schema") != METRICS_SCHEMA:
            errors.append(f"schema is not {METRICS_SCHEMA!r}")
        if not doc.get("run_id"):
            errors.append("run_id is missing")
        runs = doc.get("runs")
        if not isinstance(runs, list):
            return errors + ["runs is not a list"]
        for index, run in enumerate(runs):
            _validate_one_run(run, f"runs[{index}]", errors)
    else:
        _validate_one_run(doc, "document", errors)
    return errors


def _validate_snapshot(snapshot, where: str, errors: list[str]) -> None:
    """One ``repro.progress/v1`` snapshot's field contract."""
    if not isinstance(snapshot, dict):
        errors.append(f"{where}: not an object")
        return
    if snapshot.get("schema") != PROGRESS_SCHEMA:
        errors.append(f"{where}: schema is not {PROGRESS_SCHEMA!r}")
    if not snapshot.get("run_id"):
        errors.append(f"{where}: run_id is missing")
    for field, kind in (
        ("pid", int), ("seq", int), ("ts_ms", int),
        ("records_done", int), ("accesses", int), ("ticks", int),
        ("promotions", int), ("epochs", int),
    ):
        value = snapshot.get(field)
        if not isinstance(value, kind) or isinstance(value, bool) or value < 0:
            errors.append(f"{where}: {field} is not a non-negative integer")
    if not isinstance(snapshot.get("seq"), bool) and snapshot.get("seq") == 0:
        errors.append(f"{where}: seq must start at 1")
    total = snapshot.get("records_total")
    if total is not None:
        if not isinstance(total, int) or isinstance(total, bool) or total < 0:
            errors.append(f"{where}: records_total is not an integer")
        elif (isinstance(snapshot.get("records_done"), int)
              and snapshot["records_done"] > total):
            errors.append(f"{where}: records_done exceeds records_total")
    if snapshot.get("tier") not in ENGINE_TIERS:
        errors.append(f"{where}: unknown tier {snapshot.get('tier')!r}")
    rate = snapshot.get("rate_rps")
    if not isinstance(rate, (int, float)) or isinstance(rate, bool) or rate < 0:
        errors.append(f"{where}: rate_rps is not a non-negative number")
    eta = snapshot.get("eta_s")
    if eta is not None and (
        not isinstance(eta, (int, float)) or isinstance(eta, bool) or eta < 0
    ):
        errors.append(f"{where}: eta_s is neither null nor a non-negative number")
    if not isinstance(snapshot.get("final"), bool):
        errors.append(f"{where}: final is not a boolean")
    job = snapshot.get("job")
    if job is not None and not isinstance(job, str):
        errors.append(f"{where}: job is neither null nor a string")


def validate_progress(doc) -> list[str]:
    """Schema violations in a progress artifact (snapshot or spool).

    Beyond per-snapshot field checks, a multi-snapshot document gets the
    stream invariants: within one emitter (``run_id``, ``pid``), ``seq``
    strictly increases and nothing follows a ``final`` snapshot.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["progress document is not a JSON object"]
    snapshots = doc.get("snapshots")
    if snapshots is None:
        _validate_snapshot(doc, "snapshot", errors)
        return errors
    if not isinstance(snapshots, list):
        return ["snapshots is not a list"]
    last_seq: dict[tuple, int] = {}
    finished: set = set()
    for index, snapshot in enumerate(snapshots):
        if len(errors) >= 20:
            errors.append("... further errors suppressed")
            break
        where = f"snapshots[{index}]"
        _validate_snapshot(snapshot, where, errors)
        if not isinstance(snapshot, dict):
            continue
        emitter = (snapshot.get("run_id"), snapshot.get("pid"),
                   snapshot.get("job"))
        seq = snapshot.get("seq")
        if isinstance(seq, int):
            if emitter in finished:
                errors.append(f"{where}: snapshot after a final snapshot")
            if seq <= last_seq.get(emitter, 0):
                errors.append(
                    f"{where}: seq {seq} does not increase "
                    f"(previous {last_seq.get(emitter, 0)})"
                )
            last_seq[emitter] = seq
        if snapshot.get("final") is True:
            finished.add(emitter)
    return errors


def validate_events(doc) -> list[str]:
    """Schema violations in a captured SSE event stream."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["events document is not a JSON object"]
    events = doc.get("events")
    if not isinstance(events, list):
        return ["events is not a list"]
    last_id = 0
    for index, event in enumerate(events):
        if len(errors) >= 20:
            errors.append("... further errors suppressed")
            break
        where = f"events[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        name = event.get("event")
        if name not in _KNOWN_EVENTS:
            errors.append(f"{where}: unknown event {name!r}")
            continue
        event_id = event.get("id")
        if event_id is not None:
            if not isinstance(event_id, int) or event_id < 1:
                errors.append(f"{where}: id is not a positive integer")
            elif event_id <= last_id:
                errors.append(
                    f"{where}: id {event_id} does not increase "
                    f"(previous {last_id})"
                )
            else:
                last_id = event_id
        data = event.get("data")
        if not isinstance(data, dict):
            errors.append(f"{where}: data is not an object")
            continue
        if name == "progress":
            _validate_snapshot(data, where, errors)
        elif name == "state":
            if data.get("state") not in _KNOWN_STATES:
                errors.append(f"{where}: unknown state {data.get('state')!r}")
            if not data.get("job"):
                errors.append(f"{where}: state event missing job")
    return errors


# ----------------------------------------------------------------------
# summaries


def summarize_trace(doc: dict, top: int = 10) -> dict:
    """Digest of one trace file: span census, slowest spans, hot regions."""
    events = [e for e in doc.get("traceEvents", []) if isinstance(e, dict)]
    spans = [e for e in events if e.get("ph") == "X"]
    by_name: dict[str, dict] = {}
    for event in spans:
        entry = by_name.setdefault(
            event.get("name", "?"), {"count": 0, "total_us": 0.0, "max_us": 0.0}
        )
        dur = float(event.get("dur", 0.0))
        entry["count"] += 1
        entry["total_us"] = round(entry["total_us"] + dur, 3)
        entry["max_us"] = max(entry["max_us"], dur)
    slowest = sorted(
        spans,
        key=lambda e: (-float(e.get("dur", 0.0)), e.get("ts", 0.0), e.get("name", "")),
    )[:top]
    # Hottest regions: peak PCC frequency per (pid, region) across every
    # sampled pcc_state snapshot.
    peak: dict[tuple[int, int], int] = {}
    for event in events:
        if event.get("ph") != "i" or event.get("name") != "pcc_state":
            continue
        for pid, region, freq in (event.get("args") or {}).get("top_regions", []):
            key = (int(pid), int(region))
            peak[key] = max(peak.get(key, 0), int(freq))
    hot_regions = sorted(
        ([pid, region, freq] for (pid, region), freq in peak.items()),
        key=lambda row: (-row[2], row[0], row[1]),
    )[:top]
    return {
        "kind": "trace",
        "run_id": (doc.get("otherData") or {}).get("run_id"),
        "events": len(events),
        "spans": len(spans),
        "processes": sorted({e.get("pid") for e in spans}),
        "by_name": dict(sorted(by_name.items())),
        "slowest": [
            {
                "name": e.get("name"),
                "dur_us": float(e.get("dur", 0.0)),
                "ts_us": float(e.get("ts", 0.0)),
                "pid": e.get("pid"),
                "lane": thread_lane_name(int(e.get("tid", 0))),
                "span": (e.get("args") or {}).get("span"),
            }
            for e in slowest
        ],
        "hot_regions": hot_regions,
    }


def _merged_distributions(runs: list[dict]) -> dict[str, Histogram]:
    merged: dict[str, Histogram] = {}
    for run in runs:
        for name, dist in (run.get("distributions") or {}).items():
            histogram = Histogram.from_dict(name, dist)
            if name in merged:
                merged[name].merge(histogram)
            else:
                merged[name] = histogram
    return dict(sorted(merged.items()))


def _engine_tier_counters(runs: list[dict]) -> dict[str, int]:
    """Engine-tier retirement counters, summed across cores and runs.

    The pipeline exports its tier instrumentation per core as
    ``core<N>.fastpath.<counter>``; the inspector folds those into one
    machine-wide view (fast_hits, slow_records, columnar_retired,
    fallbacks, ...) plus the power-of-two epoch-length histogram
    (``columnar_epoch_p2_<k>`` buckets).
    """
    totals: dict[str, int] = {}
    for run in runs:
        for name, value in (run.get("counters") or {}).items():
            if ".fastpath." not in name or not isinstance(value, int):
                continue
            counter = name.split(".fastpath.", 1)[1]
            totals[counter] = totals.get(counter, 0) + value
    return dict(sorted(totals.items()))


def summarize_metrics(doc: dict) -> dict:
    """Digest of one metrics file; distributions merged across runs."""
    runs = doc["runs"] if "runs" in doc else [doc]
    merged = _merged_distributions(runs)
    distributions = {}
    for name, histogram in merged.items():
        distributions[name] = {
            "unit": histogram.unit,
            "count": histogram.count,
            "mean": round(histogram.mean, 6),
            "min": histogram.min if histogram.min is not None else 0.0,
            "max": histogram.max if histogram.max is not None else 0.0,
            **histogram.percentiles(),
        }
    totals: dict[str, int] = {}
    for run in runs:
        for key in ("accesses", "walks", "promotions", "demotions"):
            value = (run.get("meta") or {}).get(key)
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    return {
        "kind": "metrics",
        "run_id": doc.get("run_id")
        or (runs[0].get("meta") or {}).get("run_id")
        or (runs[0].get("run_id") if runs else None),
        "runs": len(runs),
        "totals": totals,
        "engine_tiers": _engine_tier_counters(runs),
        "distributions": distributions,
    }


def summarize_progress(doc: dict) -> dict:
    """Digest of a progress artifact: per-job completion and throughput."""
    snapshots = doc.get("snapshots")
    if snapshots is None:
        snapshots = [doc]
    snapshots = [s for s in snapshots if isinstance(s, dict)]
    jobs: dict[str, dict] = {}
    for snapshot in snapshots:
        label = snapshot.get("job") or "(unlabeled)"
        entry = jobs.setdefault(label, {
            "snapshots": 0, "emitters": set(), "final": False,
            "records_done": 0, "records_total": None,
            "accesses": 0, "promotions": 0, "epochs": 0,
            "tier": None, "peak_rate_rps": 0.0,
        })
        entry["snapshots"] += 1
        entry["emitters"].add(
            (snapshot.get("run_id"), snapshot.get("pid"))
        )
        entry["final"] = entry["final"] or bool(snapshot.get("final"))
        for field in ("records_done", "accesses", "promotions", "epochs"):
            value = snapshot.get(field)
            if isinstance(value, int):
                entry[field] = max(entry[field], value)
        total = snapshot.get("records_total")
        if isinstance(total, int):
            entry["records_total"] = total
        entry["tier"] = snapshot.get("tier") or entry["tier"]
        rate = snapshot.get("rate_rps")
        if isinstance(rate, (int, float)):
            entry["peak_rate_rps"] = max(entry["peak_rate_rps"], float(rate))
    for entry in jobs.values():
        entry["emitters"] = len(entry["emitters"])
    return {
        "kind": "progress",
        "snapshots": len(snapshots),
        "jobs": dict(sorted(jobs.items())),
    }


def summarize_events(doc: dict) -> dict:
    """Digest of a captured SSE stream: census plus the state story."""
    events = [e for e in doc.get("events", []) if isinstance(e, dict)]
    census: dict[str, int] = {}
    states: list[str] = []
    progress = 0
    for event in events:
        name = event.get("event") or "?"
        census[name] = census.get(name, 0) + 1
        data = event.get("data") or {}
        if name == "state" and data.get("state"):
            states.append(data["state"])
        if name == "progress":
            progress += 1
    return {
        "kind": "events",
        "events": len(events),
        "census": dict(sorted(census.items())),
        "states": states,
        "progress_events": progress,
        "terminal": states[-1] if states and states[-1] in
        ("done", "failed", "expired") else None,
    }


# ----------------------------------------------------------------------
# file entry point + rendering


def load_document(path: str | Path) -> dict:
    """Parse one artifact file; raises ``ValueError`` on non-JSON input.

    A progress spool file is JSON *Lines*, not one JSON value, so when
    whole-file parsing fails the loader retries line-by-line and wraps
    the snapshots as ``{"schema": ..., "snapshots": [...]}`` — the
    shape the progress validator and summarizer accept directly.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        lines = [line for line in text.splitlines() if line.strip()]
        try:
            snapshots = [json.loads(line) for line in lines]
        except json.JSONDecodeError:
            raise ValueError(f"{path}: not JSON ({exc})") from exc
        if not snapshots or not all(isinstance(s, dict) for s in snapshots):
            raise ValueError(f"{path}: not JSON ({exc})") from exc
        return {"schema": PROGRESS_SCHEMA, "snapshots": snapshots}
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def kind_of(doc: dict) -> str:
    """One of ``trace``/``progress``/``events``/``metrics``, by shape."""
    if "traceEvents" in doc:
        return "trace"
    if doc.get("schema") == PROGRESS_SCHEMA or "snapshots" in doc:
        return "progress"
    if "events" in doc and "counters" not in doc and "runs" not in doc:
        return "events"
    return "metrics"


def inspect_document(doc: dict, top: int = 10) -> dict:
    """Dispatching summary of one loaded artifact document."""
    kind = kind_of(doc)
    if kind == "trace":
        return summarize_trace(doc, top=top)
    if kind == "progress":
        return summarize_progress(doc)
    if kind == "events":
        return summarize_events(doc)
    return summarize_metrics(doc)


def inspect_file(path: str | Path, top: int = 10) -> dict:
    """Load + summarize one artifact file."""
    return inspect_document(load_document(path), top=top)


def validate_document(doc: dict) -> list[str]:
    """Dispatching validation of one loaded artifact document."""
    kind = kind_of(doc)
    if kind == "trace":
        return validate_trace(doc)
    if kind == "progress":
        return validate_progress(doc)
    if kind == "events":
        return validate_events(doc)
    return validate_metrics(doc)


def _fmt_us(us: float) -> str:
    if us >= 1_000_000:
        return f"{us / 1e6:.2f}s"
    if us >= 1_000:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.1f}us"


def render(summary: dict) -> str:
    """Terminal report for one summary dict (deterministic)."""
    lines: list[str] = []
    if summary["kind"] == "trace":
        lines.append(
            f"trace  run {summary['run_id'] or '?'}  "
            f"{summary['events']} events, {summary['spans']} spans, "
            f"{len(summary['processes'])} process(es)"
        )
        if summary["by_name"]:
            lines.append("span census (count, total, max):")
            for name, entry in summary["by_name"].items():
                lines.append(
                    f"  {name:<24} x{entry['count']:<6} "
                    f"total {_fmt_us(entry['total_us']):>10}  "
                    f"max {_fmt_us(entry['max_us']):>10}"
                )
        if summary["slowest"]:
            lines.append("slowest spans:")
            for rank, row in enumerate(summary["slowest"], start=1):
                lines.append(
                    f"  {rank:>2}. {row['name']:<24} {_fmt_us(row['dur_us']):>10}  "
                    f"at {_fmt_us(row['ts_us'])} (pid {row['pid']}, {row['lane']})"
                )
        if summary["hot_regions"]:
            lines.append("hottest regions (peak PCC frequency):")
            for pid, region, freq in summary["hot_regions"]:
                lines.append(f"  pid {pid} region {region:#x}  freq {freq}")
    elif summary["kind"] == "progress":
        lines.append(
            f"progress  {summary['snapshots']} snapshot(s), "
            f"{len(summary['jobs'])} job(s)"
        )
        for label, entry in summary["jobs"].items():
            total = entry["records_total"]
            done = entry["records_done"]
            pct = f"{100.0 * done / total:.1f}%" if total else "?"
            state = "final" if entry["final"] else "in flight"
            lines.append(
                f"  {label}: {done}/{total or '?'} records ({pct}), "
                f"tier {entry['tier'] or '?'}, "
                f"peak {entry['peak_rate_rps']:,.0f} rec/s, "
                f"{entry['snapshots']} snapshot(s) from "
                f"{entry['emitters']} emitter(s), {state}"
            )
    elif summary["kind"] == "events":
        census = ", ".join(
            f"{name}:{count}" for name, count in summary["census"].items()
        )
        lines.append(f"events  {summary['events']} event(s)  [{census}]")
        if summary["states"]:
            lines.append(f"state story: {' -> '.join(summary['states'])}")
        lines.append(
            f"progress events: {summary['progress_events']}, "
            f"terminal state: {summary['terminal'] or 'none'}"
        )
    else:
        lines.append(
            f"metrics  run {summary['run_id'] or '?'}  "
            f"{summary['runs']} run(s)"
        )
        if summary["totals"]:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(summary["totals"].items()))
            lines.append(f"totals: {parts}")
        tiers = summary.get("engine_tiers") or {}
        plain = {k: v for k, v in tiers.items()
                 if not k.startswith("columnar_epoch_p2_")}
        if plain:
            lines.append("engine tier counters (all cores, all runs):")
            for counter, value in plain.items():
                lines.append(f"  {counter:<24} {value:>12,}")
            buckets = {
                int(k.rsplit("_", 1)[1]): v
                for k, v in tiers.items()
                if k.startswith("columnar_epoch_p2_")
            }
            if buckets:
                census = " ".join(
                    f"2^{k}:{buckets[k]}" for k in sorted(buckets)
                )
                lines.append(f"  epoch-length histogram   {census}")
        if summary["distributions"]:
            lines.append("distributions:")
            for name, dist in summary["distributions"].items():
                unit = f" {dist['unit']}" if dist["unit"] else ""
                lines.append(
                    f"  {name}: n={dist['count']} mean={dist['mean']:.1f} "
                    f"p50={dist['p50']:.1f} p95={dist['p95']:.1f} "
                    f"p99={dist['p99']:.1f}"
                    f" (min {dist['min']:.1f}, max {dist['max']:.1f}{unit})"
                )
        else:
            lines.append("distributions: none recorded (run was not observed)")
    return "\n".join(lines)
