"""Perf smoke gate and trajectory artifact for the simulation engine.

Runs the PCC-policy simulation of the quick-scale BFS workload (the
same one the figures sweep) on the default columnar engine and
compares wall time against ``benchmarks/perf_baseline.json``. The gate
fails when the measured time exceeds ``baseline * --max-ratio`` — a
coarse tripwire for accidental hot-loop regressions, deliberately
loose enough to tolerate CI machine jitter.

Beyond the gate, the script measures the full engine story:

* ``--engines`` times all three translation tiers — scalar (the
  per-access object path), fast (the MRU memo path), and columnar
  (the whole-epoch vectorized path) — and reports accesses/second for
  each. Tier timings are *interleaved* (round-robin across tiers within
  one process) so a noisy shared host cannot systematically favor
  whichever tier happened to run during a calm stretch.
* The columnar tier must not be slower than the fast tier (within a
  noise tolerance, ``--tier-gate-tolerance``); the gate fails
  otherwise.
* ``--verify-equivalence`` asserts all tiers produce bit-identical
  simulation statistics (the property the columnar path is built on).
* ``--steady-state`` also times fast/columnar on a 4x-longer
  trace over the same footprint, where faults amortize and the
  vectorized ceiling shows. The columnar timing carries a *residue
  breakdown* read off the engine's pipeline counters: how much of the
  L1-miss residue retired as vectorized L2 array ops versus walking a
  live page table, and how many faults took the array-batched pre-pass
  versus the scalar handler.
* ``--jobs N`` times the quick-scale fig7 fragmentation sweep serially
  and with an ``N``-worker fan-out sharing the content-addressed trace
  cache, reporting the speedup. On a single-CPU host the
  parallel-vs-serial comparison is meaningless (a fan-out cannot beat
  serial), so it is skipped and annotated rather than reported as a
  regression.
* ``--bench-out FILE`` writes everything measured as a JSON trajectory
  artifact (e.g. ``BENCH_4.json``) so perf history accumulates per PR.
  The artifact embeds the tier numbers of the highest-numbered earlier
  ``BENCH_N.json`` at the repo root as ``previous``, so every artifact
  is a self-contained before/after record.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py              # gate
    PYTHONPATH=src python scripts/perf_smoke.py --update     # re-baseline
    PYTHONPATH=src python scripts/perf_smoke.py --engines --verify-equivalence
    PYTHONPATH=src python scripts/perf_smoke.py --jobs 4 --bench-out BENCH_3.json
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO / "benchmarks" / "perf_baseline.json"

def _quick_workload():
    from repro.experiments.common import QUICK, build_named_workload, config_for

    workload = build_named_workload(
        "BFS",
        graph_scale=QUICK.graph_scale,
        proxy_accesses=QUICK.proxy_accesses,
    )
    return workload, config_for(workload)


def _timed_run(workload, config, tier: str):
    from repro.engine.simulation import Simulator
    from repro.experiments.common import ENGINE_TIER_SWITCHES
    from repro.os.kernel import HugePagePolicy

    simulator = Simulator(config, policy=HugePagePolicy.PCC,
                          **ENGINE_TIER_SWITCHES[tier])
    run_workload = copy.deepcopy(workload)
    start = time.perf_counter()
    result = simulator.run([run_workload])
    return time.perf_counter() - start, result


def _residue_breakdown(result) -> dict:
    """Residue-pipeline counters from one columnar run's metrics.

    ``retired_fraction`` is the share of the L1-miss residue the
    vectorized L2 pass retired without walking a live page table —
    the number PR 7's tentpole exists to raise.
    """
    counters = (result.metrics or {}).get("counters", {})

    def total(name: str) -> int:
        return sum(v for k, v in counters.items() if k.endswith(name))

    retired = total("columnar_l2_retired")
    walked = total("columnar_live_walked")
    residue = retired + walked
    return {
        "l2_retired": retired,
        "live_walked": walked,
        "retired_fraction": round(retired / residue, 4) if residue else None,
        "faults_batched": total("columnar_faults_batched"),
        "faults_scalar": total("columnar_faults_scalar"),
        "mt_epochs": total("columnar_mt_epochs"),
    }


def measure_tiers(rounds: int, tiers: list[str],
                  access_factor: int = 1) -> dict[str, dict]:
    """Best-of-``rounds`` timing of the quick BFS PCC simulation.

    All requested tiers are timed in *interleaved* rounds (tier A, B,
    C, then A, B, C again ...) within this one process. On shared
    hosts, wall-clock throughput swings severalfold between script
    invocations; interleaving keeps cross-tier comparisons honest by
    exposing every tier to the same noise profile. ``access_factor``
    tiles each thread's compressed trace that many times over the same
    footprint (the steady-state measurement, where fault costs
    amortize and the vectorized ceiling shows).
    """
    from dataclasses import replace

    import numpy as np

    from repro.experiments.common import QUICK, build_named_workload, config_for

    workload = build_named_workload(
        "BFS",
        graph_scale=QUICK.graph_scale,
        proxy_accesses=QUICK.proxy_accesses,
    )
    if access_factor > 1:
        for thread in workload.threads:
            trace = thread.trace
            thread.trace = replace(
                trace,
                vpns=np.tile(trace.vpns, access_factor),
                counts=np.tile(trace.counts, access_factor),
                total_accesses=trace.total_accesses * access_factor,
            )
            thread._stream = None
    config = config_for(workload)
    best: dict[str, float] = {tier: float("inf") for tier in tiers}
    accesses = 0
    residue = None
    for tier in tiers:  # warmup lap: traces built, code paths hot
        _, result = _timed_run(workload, config, tier)
        accesses = result.accesses
        if tier == "columnar":
            residue = _residue_breakdown(result)
    for _ in range(rounds):
        for tier in tiers:
            seconds, _ = _timed_run(workload, config, tier)
            best[tier] = min(best[tier], seconds)
    out = {
        tier: {
            "seconds": round(best[tier], 3),
            "accesses": accesses,
            "accesses_per_sec": round(accesses / best[tier]),
        }
        for tier in tiers
    }
    if residue is not None and "columnar" in out:
        out["columnar"]["residue"] = residue
    return out


def _fingerprint(result) -> tuple:
    return (
        result.policy,
        result.total_cycles,
        result.accesses,
        result.walks,
        result.l1_hits,
        result.l2_hits,
        result.promotions,
        result.demotions,
        result.promotion_timeline,
        result.per_core,
    )


def verify_equivalence() -> bool:
    """Every engine tier must report bit-identical statistics."""
    from repro.experiments.common import ENGINE_TIER_SWITCHES

    workload, config = _quick_workload()
    prints = {
        tier: _fingerprint(_timed_run(workload, config, tier)[1])
        for tier in ENGINE_TIER_SWITCHES
    }
    reference = prints["scalar"]
    ok = all(fp == reference for fp in prints.values())
    status = "bit-identical" if ok else "DIVERGED"
    print(f"equivalence ({' vs '.join(prints)}): {status}")
    if not ok:
        for tier, fp in prints.items():
            print(f"  {tier}: {fp}", file=sys.stderr)
    return ok


def measure_cache(rounds: int) -> dict:
    """Trace-cache effectiveness: cold build vs cached memory-mapped load."""
    import tempfile

    from repro.experiments.common import QUICK, _cached_workload
    from repro.trace.cache import CACHE_DIR_ENV

    args = ("BFS", "kronecker", QUICK.graph_scale, QUICK.proxy_accesses, False, None)
    with tempfile.TemporaryDirectory(prefix="repro-perf-cache-") as tmp:
        previous = os.environ.get(CACHE_DIR_ENV)
        os.environ[CACHE_DIR_ENV] = tmp
        try:
            _cached_workload.cache_clear()
            start = time.perf_counter()
            _cached_workload(*args)
            cold = time.perf_counter() - start
            warm = []
            for _ in range(rounds):
                _cached_workload.cache_clear()
                start = time.perf_counter()
                _cached_workload(*args)
                warm.append(time.perf_counter() - start)
            _cached_workload.cache_clear()
        finally:
            if previous is None:
                del os.environ[CACHE_DIR_ENV]
            else:
                os.environ[CACHE_DIR_ENV] = previous
    best_warm = min(warm)
    lookups = 1 + rounds  # one miss, then all hits
    return {
        "cold_build_seconds": round(cold, 3),
        "cached_load_seconds": round(best_warm, 3),
        "load_speedup": round(cold / best_warm, 1) if best_warm else None,
        "hit_rate": round(rounds / lookups, 4),
    }


def measure_obs_overhead(rounds: int) -> dict:
    """Cost of the observability layer on the quick BFS PCC run.

    The gate compares ``observe=None`` (the default: auto-detection
    finds no tracer and no ``REPRO_OBS``, so every hook short-circuits)
    against ``observe=False`` (hard-off, the pre-observability code
    shape). Default-off must stay within 5% of hard-off — tracing that
    nobody asked for must be free. The fully *enabled* cost is also
    measured, informationally (it pays for span bookkeeping and
    per-walk histogram recording, and is allowed to).

    The live-progress path gets the stronger check: a run with a
    progress sink installed (snapshots at every feed point) must
    produce *bit-identical* simulation statistics to the plain run —
    progress reporting rides the scheduler loop boundary and never
    touches per-record execution, so it must not perturb the engine
    tier choice or any result the paper's figures are built from.
    """
    import tempfile

    from repro.engine.simulation import Simulator
    from repro.obs import progress as progress_module
    from repro.obs import tracer as tracer_module
    from repro.os.kernel import HugePagePolicy

    workload, config = _quick_workload()

    def timed(observe):
        simulator = Simulator(config, policy=HugePagePolicy.PCC, observe=observe)
        run_workload = copy.deepcopy(workload)
        start = time.perf_counter()
        result = simulator.run([run_workload])
        return time.perf_counter() - start, result

    def fingerprint(result) -> tuple:
        return (
            result.total_cycles, result.accesses, result.walks,
            result.l1_hits, result.l2_hits, result.promotions,
            result.demotions, tuple(result.promotion_timeline),
        )

    timed(False)  # warmup
    hard_off = min(timed(False)[0] for _ in range(rounds))
    auto_off, baseline = timed(None)
    for _ in range(rounds - 1):
        auto_off = min(auto_off, timed(None)[0])
    with tempfile.TemporaryDirectory(prefix="repro-obs-spool-") as spool:
        tracer_module.enable(spool_dir=spool)
        try:
            enabled = min(timed(None)[0] for _ in range(rounds))
        finally:
            tracer_module.disable()

    # bit-identity under live progress, at the most aggressive cadence
    snapshots: list[dict] = []
    sink = progress_module.add_sink(snapshots.append)
    previous_cadence = os.environ.get(progress_module.CADENCE_ENV)
    os.environ[progress_module.CADENCE_ENV] = "0"
    try:
        progress_on, progressed = timed(None)
    finally:
        progress_module.remove_sink(sink)
        if previous_cadence is None:
            os.environ.pop(progress_module.CADENCE_ENV, None)
        else:
            os.environ[progress_module.CADENCE_ENV] = previous_cadence
    progress_identical = fingerprint(progressed) == fingerprint(baseline)

    return {
        "hard_off_seconds": round(hard_off, 3),
        "auto_off_seconds": round(auto_off, 3),
        "enabled_seconds": round(enabled, 3),
        "disabled_ratio": round(auto_off / hard_off, 3),
        "enabled_ratio": round(enabled / hard_off, 3),
        "progress_seconds": round(progress_on, 3),
        "progress_snapshots": len(snapshots),
        "progress_stats_identical": progress_identical,
    }


def _timed_cli(args: list[str]) -> float:
    """Wall time of one fresh-interpreter ``python -m repro`` run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", *args],
        check=True,
        cwd=REPO,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _schedulable_cpus() -> int | None:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def measure_fan_out(jobs: int, cache_dir: str | None = None) -> dict:
    """Quick fig7 fragmentation sweep: serial vs ``--jobs`` fan-out.

    Both runs start a fresh interpreter (cold lru caches) and share one
    trace-cache directory, so the comparison isolates the fan-out win
    from trace-generation amortization.

    On a single-schedulable-CPU host the workers time-slice one core,
    so "parallel slower than serial" is physics, not a regression: the
    comparison is skipped (serial is still timed) and the record says
    why, so trajectory artifacts from cramped CI hosts don't read as
    fan-out regressions.
    """
    import tempfile

    from repro.trace.cache import CACHE_DIR_ENV

    cpus = _schedulable_cpus()
    single_cpu = cpus is not None and cpus == 1
    with tempfile.TemporaryDirectory(prefix="repro-perf-fig7-") as tmp:
        previous = os.environ.get(CACHE_DIR_ENV)
        os.environ[CACHE_DIR_ENV] = cache_dir or tmp
        try:
            serial = _timed_cli(["--scale", "quick", "fig7"])
            parallel = (
                None
                if single_cpu
                else _timed_cli(["--scale", "quick", "--jobs", str(jobs), "fig7"])
            )
        finally:
            if previous is None:
                del os.environ[CACHE_DIR_ENV]
            else:
                os.environ[CACHE_DIR_ENV] = previous
    record = {
        "sweep": "fig7 quick, 3 apps x 5 configs",
        "jobs": jobs,
        "serial_seconds": round(serial, 3),
    }
    if single_cpu:
        record["parallel_seconds"] = None
        record["speedup"] = None
        record["skipped"] = (
            f"single schedulable CPU (affinity={cpus}): parallel-vs-serial "
            "comparison is not meaningful on this host"
        )
    else:
        record["parallel_seconds"] = round(parallel, 3)
        record["speedup"] = round(serial / parallel, 2)
    return record


def _previous_artifact(out: Path) -> dict | None:
    """Tier numbers of the newest earlier ``BENCH_N.json``, if any."""
    import re

    best: tuple[int, Path] | None = None
    for path in REPO.glob("BENCH_*.json"):
        if path.resolve() == out.resolve():
            continue
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and (best is None or int(match.group(1)) > best[0]):
            best = (int(match.group(1)), path)
    if best is None:
        return None
    try:
        data = json.loads(best[1].read_text())
    except (OSError, ValueError):
        return None
    keep: dict = {"artifact": best[1].name}
    for key in ("engine_tiers", "tier_gate", "steady_state"):
        if key in data:
            keep[key] = data[key]
    return keep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=1.5,
        help="fail when measured/baseline exceeds this (default 1.5)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timed rounds (best-of)"
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baseline from this machine",
    )
    parser.add_argument(
        "--engines",
        action="store_true",
        help="also time the scalar tier (informational)",
    )
    parser.add_argument(
        "--verify-equivalence",
        action="store_true",
        help="assert scalar/fast/columnar statistics are bit-identical",
    )
    parser.add_argument(
        "--tier-gate-tolerance",
        type=float,
        default=0.10,
        help="columnar may trail fast by at most this fraction before the "
        "tier gate fails (default 0.10, absorbs shared-host jitter)",
    )
    parser.add_argument(
        "--steady-state",
        action="store_true",
        help="also time fast/columnar on a 4x-longer trace over the "
        "same footprint (fault costs amortized)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="also time the quick fig7 sweep serial vs an N-worker fan-out",
    )
    parser.add_argument(
        "--obs-overhead",
        action="store_true",
        help="gate: tracing disabled-by-default must cost <=5%% vs "
        "observe=False hard-off (enabled cost reported informationally)",
    )
    parser.add_argument(
        "--obs-max-ratio",
        type=float,
        default=1.05,
        help="disabled-observability overhead gate threshold (default 1.05)",
    )
    parser.add_argument(
        "--bench-out",
        metavar="FILE",
        help="write a JSON trajectory artifact (e.g. BENCH_2.json)",
    )
    args = parser.parse_args(argv)

    artifact: dict = {
        "benchmark": "perf smoke trajectory",
        "workload": "quick BFS, PCC policy",
        "rounds": args.rounds,
        # Parallel speedups are bounded by the host: a fan-out cannot
        # beat serial on a single-CPU machine, so readers need this to
        # interpret the fig7 numbers. Tier throughputs on a 1-CPU
        # shared host also carry large jitter; tiers are interleaved
        # within this process to keep their *relative* order honest.
        "host": {
            "cpu_count": os.cpu_count(),
            "schedulable_cpus": _schedulable_cpus(),
        },
    }

    tier_names = ["fast", "columnar"]
    if args.engines:
        tier_names.insert(0, "scalar")
    tiers = measure_tiers(args.rounds, tier_names)
    artifact["engine_tiers"] = tiers
    for tier, numbers in tiers.items():
        print(
            f"{tier:>8}: {numbers['seconds']:.3f}s best of {args.rounds} "
            f"({numbers['accesses_per_sec']:,} accesses/s)"
        )

    status = 0
    # The columnar tier must earn its keep: at least fast-tier
    # throughput (minus jitter tolerance) on the same interleaved runs.
    fast_rate = tiers["fast"]["accesses_per_sec"]
    col_rate = tiers["columnar"]["accesses_per_sec"]
    floor = fast_rate * (1.0 - args.tier_gate_tolerance)
    artifact["tier_gate"] = {
        "columnar_accesses_per_sec": col_rate,
        "fast_accesses_per_sec": fast_rate,
        "ratio": round(col_rate / fast_rate, 3),
        "tolerance": args.tier_gate_tolerance,
        "passed": col_rate >= floor,
    }
    print(
        f"tier gate: columnar/fast = {col_rate / fast_rate:.3f} "
        f"(floor {1.0 - args.tier_gate_tolerance:.2f})"
    )
    if col_rate < floor:
        print(
            "perf smoke FAILED: columnar tier slower than fast tier",
            file=sys.stderr,
        )
        status = 1

    if args.steady_state:
        steady = measure_tiers(args.rounds, ["fast", "columnar"],
                               access_factor=4)
        artifact["steady_state"] = {
            "workload": "quick BFS x4 accesses, same footprint",
            "tiers": steady,
        }
        for tier, numbers in steady.items():
            print(
                f"steady {tier:>8}: {numbers['seconds']:.3f}s "
                f"({numbers['accesses_per_sec']:,} accesses/s)"
            )
        res = steady["columnar"].get("residue")
        if res and res["retired_fraction"] is not None:
            print(
                f"steady residue: {res['l2_retired']:,} L2-retired vs "
                f"{res['live_walked']:,} live-walked "
                f"({res['retired_fraction']:.1%} retired as array ops); "
                f"faults {res['faults_batched']:,} batched / "
                f"{res['faults_scalar']:,} scalar"
            )

    if args.verify_equivalence:
        ok = verify_equivalence()
        artifact["equivalence"] = "bit-identical" if ok else "diverged"
        if not ok:
            status = 1

    artifact["trace_cache"] = measure_cache(max(1, args.rounds - 1))
    print(
        "trace cache: cold build "
        f"{artifact['trace_cache']['cold_build_seconds']:.3f}s, cached load "
        f"{artifact['trace_cache']['cached_load_seconds']:.3f}s "
        f"(hit rate {artifact['trace_cache']['hit_rate']:.0%})"
    )

    if args.obs_overhead:
        obs = measure_obs_overhead(args.rounds)
        artifact["obs_overhead"] = obs
        print(
            f"obs overhead: hard-off {obs['hard_off_seconds']:.3f}s, "
            f"default-off {obs['auto_off_seconds']:.3f}s "
            f"(ratio {obs['disabled_ratio']:.3f}, max {args.obs_max_ratio}), "
            f"enabled {obs['enabled_seconds']:.3f}s "
            f"(ratio {obs['enabled_ratio']:.3f}, informational)"
        )
        print(
            f"  live progress: {obs['progress_snapshots']} snapshots in "
            f"{obs['progress_seconds']:.3f}s, stats identical: "
            f"{obs['progress_stats_identical']}"
        )
        if obs["disabled_ratio"] > args.obs_max_ratio:
            print(
                "perf smoke FAILED: disabled observability is not free",
                file=sys.stderr,
            )
            status = 1
        if not obs["progress_stats_identical"]:
            print(
                "perf smoke FAILED: live progress perturbed the "
                "simulation statistics",
                file=sys.stderr,
            )
            status = 1

    if args.jobs:
        fan = measure_fan_out(args.jobs)
        artifact["fig7_fan_out"] = fan
        if fan.get("skipped"):
            print(
                f"fig7 quick: serial {fan['serial_seconds']:.1f}s; "
                f"parallel comparison skipped ({fan['skipped']})"
            )
        else:
            print(
                f"fig7 quick: serial {fan['serial_seconds']:.1f}s vs "
                f"--jobs {args.jobs} {fan['parallel_seconds']:.1f}s "
                f"({fan['speedup']:.2f}x)"
            )

    # The gate times the default engine, the one every figure runs.
    seconds = tiers["columnar"]["seconds"]
    if args.update:
        previous = {}
        if BASELINE_PATH.exists():
            previous = json.loads(BASELINE_PATH.read_text())
        record = {
            "benchmark": f"quick BFS, PCC policy, best-of-{args.rounds}, "
            "columnar engine",
            "seconds": seconds,
            "engine": "columnar",
        }
        # keep the pre-batching scalar-era baseline for comparison
        legacy = previous.get("scalar_baseline") or (
            {"benchmark": previous["benchmark"], "seconds": previous["seconds"]}
            if previous.get("engine") is None and "seconds" in previous
            else None
        )
        if legacy:
            record["scalar_baseline"] = legacy
        BASELINE_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(f"baseline updated -> {BASELINE_PATH}")
    elif not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update", file=sys.stderr)
        return 2
    else:
        baseline = json.loads(BASELINE_PATH.read_text())["seconds"]
        ratio = seconds / baseline
        artifact["gate"] = {
            "baseline_seconds": baseline,
            "measured_seconds": seconds,
            "ratio": round(ratio, 2),
            "max_ratio": args.max_ratio,
        }
        print(f"baseline {baseline:.3f}s -> ratio {ratio:.2f} (max {args.max_ratio})")
        if ratio > args.max_ratio:
            print("perf smoke FAILED: hot path regressed", file=sys.stderr)
            status = 1

    if args.bench_out:
        out = Path(args.bench_out)
        previous = _previous_artifact(out)
        if previous is not None:
            artifact["previous"] = previous
        else:
            # a fresh clone has no perf history; record that as data
            # (self-describing artifact) instead of failing the run
            artifact["previous"] = {
                "note": "no earlier BENCH_N.json found at the repo root; "
                "first trajectory point (fresh clone or pruned history)",
                "artifact": None,
            }
            print("bench-out: no previous BENCH artifact; recording "
                  "first trajectory point")
        out.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"trajectory artifact -> {out}")

    if status == 0:
        print("perf smoke OK")
    return status


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main())
