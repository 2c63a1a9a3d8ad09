"""``python -m bench run``: run the benchmark and print every metric.

Usage::

    python -m bench run [--workload W] [--seed S] [--seconds N]
                        [--trace [0|1]] [--out FILE]

Each sweep rep runs in a fresh interpreter (``python -m bench.rep``)
and reps repeat until ``--seconds`` of measuring is used up (at least
three untraced reps). ``serve-mixed`` starts ``repro serve`` several
times for set-up samples, then drives the last daemon for
``--seconds``.

``--trace 0`` (default) prints the end-to-end metrics; ``--trace 1``
adds one traced rep (or traced load phase) with the layer wrappers of
:mod:`bench.layers`, prints its per-layer table and reports the
per-layer metrics. With ``--out FILE`` the full report goes to
``FILE`` and a traced run's spans to ``FILE``'s stem plus
``.<workload>.trace.json`` beside it. Scratch files go to a fresh
``.bench-*`` directory in the checkout, deleted when the run ends.
The last line of standard output is the result of the last workload
run: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from bench import layers

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("frag-lru", "frag-plru", "mt-threads", "serve-mixed")

DEFAULT_SECONDS = 25
#: median :mod:`bench.probe` time on the reference host, a 2-vCPU Intel
#: Xeon VM, by the number of copies run at once; timings are reported
#: at this host speed
PROBE_REF_S = {1: 0.75, 2: 0.83}
#: untraced reps a timed sweep run makes at least (2 beside a traced rep)
MIN_REPS = 3
#: a run starts no rep expected to end later than this after its start
RUN_LIMIT_S = 150
REP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "replay_ms": "ms",
    "jobs_per_s": "jobs/s",
}

#: Layers that work outside a sweep's timed window: inputs are built in
#: set-up and the journal is read by the replay passes. On sweeps their
#: metrics come from the whole traced rep, their shares from the time of
#: the phase they run in (a key of the rep's result).
OUTSIDE_SWEEP = {
    "workloads.build_workload": "setup_s",
    "workloads.build_graph": "setup_s",
    "journal.load": "replay_total_s",
}

#: layers whose call counts are reported as per-layer metrics
COUNTED_CALLS = (
    "workloads.build_graph", "columnar.classify_lru_hits", "residue.plan_walks",
    "machine.run", "machine.run_epoch", "machine.run_quantum", "tlb.lookup",
    "tlb.walk", "os.handle_fault", "journal.commit", "serve.execute_job",
    "serve.job_store_save",
)
#: extra counters the wrappers keep, reported as ``<layer>.<key>``
LAYER_EXTRAS = (
    ("columnar.classify_lru_hits", "touches"), ("pcc.access_many", "events"),
    ("os.handle_faults_bulk", "pages"), ("journal.load", "hits"),
)
ENGINE_REPORTED = (
    "columnar_epochs", "columnar_mt_epochs", "columnar_plru_fallbacks",
    "columnar_fallbacks", "batch_retired", "batch_fallbacks",
    "columnar_faults_batched", "columnar_faults_scalar",
)
SERVE_COUNTS = ("serve.replayed_jobs", "serve.degraded_jobs", "serve.rejected_429")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order.

    Layer times are reported as shares of the traced run's measured time
    (the traced sweep; for serve-mixed, load time x executors; on sweeps,
    set-up or replay time for :data:`OUTSIDE_SWEEP`), which cancels the
    host-speed drift between runs. Absolute seconds are in the printed
    table and the ``--out`` report.
    """
    units = {"trace.sweep_s": "s", "trace.overhead_ratio": "ratio",
             "layers.named_frac": "ratio"}
    for name in layers.LAYER_NAMES:
        units[f"{name}.self_frac"] = "ratio"
        if name in layers.CONTAINERS:
            units[f"{name}.frac"] = "ratio"
    for name in COUNTED_CALLS:
        units[f"{name}.calls"] = "count"
    for name, key in LAYER_EXTRAS:
        units[f"{name}.{key}"] = "count"
    for counter in ENGINE_REPORTED:
        units[f"machine.{counter}"] = "count"
    units["machine.columnar_retired_frac"] = "ratio"
    for name in SERVE_COUNTS:
        units[name] = "count"
    units["serve.polls_per_job"] = "count"
    units["serve.overhead_frac"] = "ratio"
    return units


# ----------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest_failures(reps: list[dict]) -> int:
    """Ops of reps whose stats digest differs from the most common one.

    The simulator is deterministic, so every rep of one seed must
    produce the same statistics; a rep that does not fails all its ops.
    """
    digests = Counter(rep["digest"] for rep in reps if "digest" in rep)
    if not digests:
        return 0
    expected, _ = digests.most_common(1)[0]
    return sum(rep["attempted"] for rep in reps
               if "digest" in rep and rep["digest"] != expected and not rep["failed"])


# ----------------------------------------------------------------------
# child processes


def child_env(run_dir: Path, journal: Path | None) -> dict:
    """Environment of reps and daemons: no inherited ``REPRO_*`` knobs."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_TRACE_CACHE"] = "off"
    env["REPRO_JOURNAL"] = str(journal) if journal is not None else "off"
    env["TMPDIR"] = str(run_dir)
    return env


def run_probe(run_dir: Path, parallel: int = 1) -> float:
    """Mean seconds from spawning :mod:`bench.probe` to its end.

    ``parallel`` copies run at once, one per CPU the workload keeps busy,
    so the probe sees the same host capacity the workload does.
    """
    started = time.monotonic()
    procs = [subprocess.Popen([sys.executable, "-m", "bench.probe"], cwd=ROOT,
                              env=child_env(run_dir, None), text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
             for _ in range(parallel)]
    ends = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=60)
            if proc.returncode != 0:
                raise RuntimeError(f"bench.probe exited {proc.returncode}")
            ends.append(float(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return statistics.fmean(ends) - started


def at_reference_speed(raw: dict, probes: list[float], width: int
                       ) -> tuple[dict, float]:
    """Timings rescaled to the reference host speed; returns the factor.

    The host's speed drifts by tens of percent over minutes, and the
    drift moves the probe and the workload together. Scaling by
    ``PROBE_REF_S[width] / median(probes)`` of the same run removes it,
    so runs made at different times compare. Memory is not rescaled.
    """
    factor = PROBE_REF_S[width] / statistics.median(probes)
    scaled = {name: value * factor for name, value in raw.items()}
    scaled["peak_rss_mb"] = raw["peak_rss_mb"]
    scaled["jobs_per_s"] = raw["jobs_per_s"] / factor
    return scaled, factor


def run_rep(workload: str, seed, run_dir: Path, index: int,
            trace_out: Path | None = None) -> dict:
    """One rep in a fresh interpreter; a crash fails all its ops."""
    from bench.workloads import SWEEPS

    ops = SWEEPS[workload].ops
    result = run_dir / f"rep-{index}.json"
    log = run_dir / f"rep-{index}.log"
    journal = run_dir / f"journal-{index}"
    argv = [sys.executable, "-m", "bench.rep", "--workload", workload,
            "--result", str(result)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    try:
        with open(log, "wb") as out:
            code = subprocess.run(argv, cwd=ROOT, env=child_env(run_dir, journal),
                                  stdout=out, stderr=subprocess.STDOUT,
                                  timeout=REP_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    wall = time.monotonic() - spawned
    shutil.rmtree(journal, ignore_errors=True)
    if code != 0 or not result.exists():
        tail = log.read_text(errors="replace")[-1500:]
        return {"attempted": ops, "failed": ops, "wall_s": wall,
                "problems": [f"rep exited {code}: {tail}"]}
    doc = json.loads(result.read_text())
    doc["wall_s"] = wall
    if "setup_done" in doc:
        doc["setup_s"] = doc["setup_done"] - spawned
    return doc


# ----------------------------------------------------------------------
# workloads


def run_sweep(workload: str, seed, run_dir: Path, *, seconds: float,
              traced: bool) -> dict:
    """Reps of one sweep workload, then its metrics."""
    start = time.monotonic()
    traced_rep = None
    trace_file = run_dir / f"{workload}.trace.json"
    if traced:
        traced_rep = run_rep(workload, seed, run_dir, 0, trace_out=trace_file)
    plain: list[dict] = []
    probes: list[float] = []
    minimum = 2 if traced else MIN_REPS
    while True:
        if plain:
            elapsed = time.monotonic() - start
            estimate = statistics.median(rep["wall_s"] for rep in plain)
            # stop at the rep boundary nearest to ``seconds``
            if elapsed + estimate > RUN_LIMIT_S or (
                    len(plain) >= minimum and elapsed + estimate / 2 > seconds):
                break
        probes.append(run_probe(run_dir))
        plain.append(run_rep(workload, seed, run_dir, len(plain) + 1))
    probes.append(run_probe(run_dir))

    every = plain + ([traced_rep] if traced_rep is not None else [])
    report = {
        "workload": workload,
        "reps": len(plain),
        "attempted": sum(rep["attempted"] for rep in every),
        "failed": sum(rep["failed"] for rep in every) + digest_failures(every),
        "problems": [p for rep in every for p in rep.get("problems", [])][:5],
        "digests": sorted({rep["digest"] for rep in every if "digest" in rep}),
    }
    done = [rep for rep in plain if "replay_s" in rep]
    if done:
        # The op list mixes kinds that differ tenfold in cost, so a
        # percentile over raw samples jumps between kinds; take each
        # op's median over reps, then percentiles across the op list.
        per_op = [statistics.median(seconds) for seconds in zip(
            *(rep["op_seconds"] for rep in done))]
        sweep_s = statistics.median(rep["sweep_s"] for rep in done)
        report["raw"] = {
            "setup_s": statistics.median(rep["setup_s"] for rep in done),
            "sweep_s": sweep_s,
            "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in done),
            "job_p50_ms": percentile(per_op, 50) * 1e3,
            "job_p99_ms": percentile(per_op, 99) * 1e3,
            "replay_ms": statistics.median(rep["replay_s"] for rep in done) * 1e3,
            "jobs_per_s": len(per_op) / sweep_s,
        }
        report["e2e"], report["host_factor"] = at_reference_speed(
            report["raw"], probes, 1)
        report["samples"] = {
            "setup_s": [rep["setup_s"] for rep in done],
            "sweep_s": [rep["sweep_s"] for rep in done],
            "peak_rss_mb": [rep["rss_mb"] for rep in done],
            "replay_ms": [rep["replay_s"] * 1e3 for rep in done],
            "op_ms": [seconds * 1e3 for seconds in per_op],
            "ops": len(per_op) * len(done),
            "probe_s": probes,
        }
    if traced_rep is not None and "replay_s" in traced_rep and done:
        report["ledger"] = traced_rep["sweep_layers"]
        report["ledger_whole_rep"] = traced_rep["layers"]
        report["phase_s"] = {key: traced_rep[key]
                             for key in set(OUTSIDE_SWEEP.values())}
        report["trace_capacity_s"] = traced_rep["sweep_s"]
        report["trace_sweep_s"] = traced_rep["sweep_s"]
        report["trace_tmp"] = trace_file
    return report


def run_serve_workload(seed, run_dir: Path, *, seconds: float, traced: bool) -> dict:
    """Set-up samples and a closed-loop load phase (two when traced)."""
    try:
        return _serve_report(seed, run_dir, seconds=seconds, traced=traced)
    except Exception:  # a daemon that never came up: nothing was measured
        return {"workload": "serve-mixed", "reps": 0, "attempted": 1, "failed": 1,
                "problems": [traceback.format_exc()], "digests": []}


def _serve_report(seed, run_dir: Path, *, seconds: float, traced: bool) -> dict:
    from bench import serve

    env = child_env(run_dir, None)
    share = seconds / 2 if traced else seconds
    probe = lambda: run_probe(run_dir, parallel=serve.CPUS_BUSY)  # noqa: E731
    plain = serve.summarize(serve.run_serve(
        run_dir / "plain", env, ROOT, seed, seconds=share, traced=False, probe=probe))
    phases = [plain]
    report = {"workload": "serve-mixed", "reps": 1}
    if traced:
        measured = serve.run_serve(run_dir / "traced", env, ROOT, seed,
                                   seconds=share, traced=True,
                                   probe=probe, setup_samples=1)
        traced_phase = serve.summarize(measured)
        phases.append(traced_phase)
        if "ledger" in measured and traced_phase["attempted"]:
            ledger = measured["ledger"]["layers"]
            execute = ledger["serve.execute_job"]
            mean_latency = statistics.fmean(traced_phase["latencies_ms"]) / 1e3
            mean_execute = execute["s"] / execute["calls"] if execute["calls"] else 0.0
            report.update({
                "ledger": ledger,
                # two executor threads run jobs at once (numpy releases
                # the GIL), so layer shares are of the load's executor
                # capacity
                "trace_capacity_s": traced_phase["wall_s"] * serve.EXECUTORS,
                "trace_sweep_s": traced_phase["sweep_s"],
                "trace_tmp": run_dir / "traced" / "ledger.trace.json",
                "traced_replays": traced_phase["replays"],
                "serve": {
                    "serve.replayed_jobs": ledger["journal.load"].get("hits", 0),
                    "serve.degraded_jobs": traced_phase["degraded_jobs"],
                    "serve.rejected_429": traced_phase["rejected_429"],
                    "serve.polls_per_job": traced_phase["polls_per_job"],
                    "serve.overhead_frac": (mean_latency - mean_execute) / mean_latency,
                    "serve.submit_p50_ms": traced_phase["submit_p50_ms"],
                    "serve.overhead_ms": (mean_latency - mean_execute) * 1e3,
                },
            })
    common = min(serve.fresh_prefix(phase["fresh"]) for phase in phases)
    digests = [serve.serve_digest(phase["fresh"], common) for phase in phases]
    report.update({
        "attempted": sum(phase["attempted"] for phase in phases),
        "failed": sum(phase["failed"] for phase in phases)
        + (phases[-1]["attempted"] if len(set(digests)) > 1 else 0),
        "problems": [p for phase in phases for p in phase["problems"]][:5],
        "digests": sorted(set(digests)),
        "samples": {"setup_s": plain["setup_samples"], "ops": plain["attempted"],
                    "replays": plain["replays"], "probe_s": plain["probe_s"]},
    })
    if plain["fresh_ms"] and plain["replay_ms"] and plain["peak_rss_mb"] is not None:
        report["raw"] = {
            "setup_s": plain["setup_s"],
            "sweep_s": plain["sweep_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
            "job_p50_ms": percentile(plain["fresh_ms"], 50),
            # the tail is fresh jobs either way; all jobs give it more samples
            "job_p99_ms": percentile(plain["latencies_ms"], 99),
            "replay_ms": percentile(plain["replay_ms"], 50),
            "jobs_per_s": plain["jobs_per_s"],
        }
        report["e2e"], report["host_factor"] = at_reference_speed(
            report["raw"], plain["probe_s"], serve.CPUS_BUSY)
    return report


def layer_metrics(report: dict) -> dict[str, float]:
    """The per-layer metrics of a traced run (see :func:`per_layer_units`)."""
    ledger = report["ledger"]
    whole = report.get("ledger_whole_rep")
    wall = report["trace_capacity_s"]

    def source(name: str) -> tuple[dict, float]:
        """The layer's fields and the time its shares are of."""
        if whole is not None and name in OUTSIDE_SWEEP:
            return whole[name], report["phase_s"][OUTSIDE_SWEEP[name]]
        return ledger[name], wall

    values: dict[str, float] = {
        "trace.sweep_s": report["trace_sweep_s"],
        "trace.overhead_ratio": report["trace_sweep_s"] / report["raw"]["sweep_s"],
        "layers.named_frac": layers.named_frac(ledger, wall),
    }
    for name in layers.LAYER_NAMES:
        fields, span = source(name)
        values[f"{name}.self_frac"] = fields["self_s"] / span
        if name in layers.CONTAINERS:
            values[f"{name}.frac"] = fields["s"] / span
    for name in COUNTED_CALLS:
        values[f"{name}.calls"] = source(name)[0]["calls"]
    for name, key in LAYER_EXTRAS:
        values[f"{name}.{key}"] = source(name)[0].get(key, 0)
    engine = ledger["machine.run"]
    for counter in ENGINE_REPORTED:
        values[f"machine.{counter}"] = engine.get(counter, 0)
    retired = engine.get("columnar_retired", 0)
    residue = engine.get("columnar_residue_records", 0)
    values["machine.columnar_retired_frac"] = (
        retired / (retired + residue) if retired + residue else 0.0)
    serve_values = report.get("serve", {})
    for name in SERVE_COUNTS + ("serve.polls_per_job", "serve.overhead_frac"):
        values[name] = serve_values.get(name, 0)
    return values


# ----------------------------------------------------------------------
# reporting


def render(report: dict, traced: bool) -> str:
    lines = [f"== {report['workload']}: {report['reps']} untraced "
             f"rep{'s' if report['reps'] != 1 else ''}, "
             f"fail_frac {report['failed']}/{report['attempted']}"]
    raw = report.get("raw", {})
    for name, value in report.get("e2e", {}).items():
        lines.append(f"  {name:<14}{value:>14.4f} {END_TO_END[name]:<7}"
                     f"(measured {raw[name]:.4f})")
    if "host_factor" in report:
        lines.append(f"  host speed factor {report['host_factor']:.4f} "
                     "(reference probe time over this run's median)")
    samples = report.get("samples", {})
    if "sweep_s" in samples and len(samples["sweep_s"]) > 1:
        quartiles = statistics.quantiles(samples["sweep_s"], n=4)
        lines.append(f"  sweep_s IQR {quartiles[2] - quartiles[0]:.4f} s over "
                     f"{len(samples['sweep_s'])} reps, {samples['ops']} ops")
    lines.append(f"  stats_digest {' '.join(report['digests']) or '-'}")
    for problem in report["problems"]:
        lines.append(f"  FAILED: {problem.strip().splitlines()[-1]}")
    if traced and "ledger" in report and "raw" in report:
        overhead = report["trace_sweep_s"] / report["raw"]["sweep_s"]
        spans = report.get("trace_file") or "not kept (pass --out to keep them)"
        lines.append(f"  per-layer ledger over {report['trace_capacity_s']:.4f} s "
                     f"of traced run time (tracing overhead {overhead:.3f}x, "
                     f"spans: {spans})")
        lines.append(layers.render_table(report["ledger"], report["trace_capacity_s"]))
        if "ledger_whole_rep" in report:
            for name, phase in OUTSIDE_SWEEP.items():
                fields = report["ledger_whole_rep"][name]
                lines.append(f"  outside the sweep: {name} self {fields['self_s']:.4f} s "
                             f"of {report['phase_s'][phase]:.4f} s {phase}, "
                             f"{fields['calls']} calls")
        for name, value in report.get("serve", {}).items():
            lines.append(f"  {name} = {value:.4f}")
    return "\n".join(lines)


def result_line(report: dict, traced: bool) -> dict:
    """The contract line: metrics by name with their units."""
    if traced:
        units = per_layer_units()
        values = layer_metrics(report) if "ledger" in report and "raw" in report else {}
    else:
        units = END_TO_END
        values = report.get("e2e", {})
    return {
        "correct": report["failed"] == 0 and len(values) == len(units),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }


def run_workload(name: str, args) -> dict:
    """One workload in a fresh scratch directory, deleted at the end.

    A traced run's spans are kept only with ``--out``, beside it.
    """
    run_dir = Path(tempfile.mkdtemp(prefix=f".bench-{name}-", dir=ROOT))
    try:
        if name == "serve-mixed":
            report = run_serve_workload(args.seed, run_dir, seconds=args.seconds,
                                        traced=args.trace)
        else:
            report = run_sweep(name, args.seed, run_dir, seconds=args.seconds,
                               traced=args.trace)
        trace_tmp = report.pop("trace_tmp", None)
        if args.out and trace_tmp is not None and trace_tmp.exists():
            out = Path(args.out)
            kept = out.with_name(f"{out.stem}.{name}.trace.json")
            shutil.copyfile(trace_tmp, kept)
            report["trace_file"] = str(kept)
        return report
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", choices=WORKLOADS, default=None,
                     help="one workload (default: all, in order)")
    run.add_argument("--seed", type=int, default=None,
                     help="input seed (default: each figure's own inputs)")
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                     help="measuring time per workload")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="add a traced rep; report per-layer metrics")
    run.add_argument("--out", default=None,
                     help="write the full report as JSON (and traced spans beside it)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    args.trace = bool(args.trace)
    reports = []
    for name in [args.workload] if args.workload else WORKLOADS:
        report = run_workload(name, args)
        report["result"] = result_line(report, args.trace)
        reports.append(report)
        print(render(report, args.trace), flush=True)
        print(json.dumps(report["result"]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(reports, indent=2, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
