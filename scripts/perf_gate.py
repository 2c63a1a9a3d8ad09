"""Perf gate: a ``python -m bench run`` report against the newest BENCH.

Usage::

    python -m bench run --out bench-report.json
    python scripts/perf_gate.py bench-report.json

The baseline is the highest-numbered ``BENCH_<n>.json`` at the repository
root, which ``make bench`` writes in the same format. The gate fails when

* the newest BENCH is not a ``bench`` report, or the two reports do not
  cover the same workloads;
* any workload of the report has ``failed > 0``;
* any workload's stats digest differs from the BENCH's;
* any end-to-end metric is worse than the BENCH's value by more than its
  ``BENCHMARK.json`` bound (the reports' timings are host-normalised).

It then runs the tier A/B: the quick-scale BFS workload under PCC on the
fast and the columnar tier, a warm-up lap and then best-of-3 rounds
interleaved, and fails when columnar reaches less than 0.90 of the fast
tier's accesses per second. Exit status 0 means every check passed.
"""

from __future__ import annotations

import copy
import json
import re
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIER_ROUNDS = 3
TIER_FLOOR = 0.90


def newest_bench() -> Path:
    """The highest-numbered ``BENCH_<n>.json`` at the repository root."""
    found = {int(m.group(1)): path for path in REPO.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))}
    if not found:
        raise SystemExit("perf gate: no BENCH_<n>.json at the repository root")
    return found[max(found)]


def by_workload(path: Path) -> dict[str, dict] | None:
    """The report's workloads by name, or None if it is no bench report."""
    doc = json.loads(path.read_text())
    if not isinstance(doc, list) or not all(
            isinstance(w, dict) and {"workload", "failed", "digests"} <= w.keys()
            for w in doc):
        return None
    return {w["workload"]: w for w in doc}


def compare(report: dict[str, dict], bench: dict[str, dict], bench_name: str
            ) -> list[str]:
    """Every check of the report against the BENCH; returns the failures."""
    bounds = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    problems = []
    if report.keys() != bench.keys():
        problems.append(f"workloads {sorted(report)} differ from "
                        f"{bench_name}'s {sorted(bench)}")
    for name in sorted(report.keys() & bench.keys()):
        new, old = report[name], bench[name]
        if new["failed"]:
            problems.append(f"{name}: {new['failed']} of {new['attempted']} ops failed")
        if new["digests"] != old["digests"]:
            problems.append(f"{name}: stats_digest {new['digests']} differs from "
                            f"{bench_name}'s {old['digests']}")
        for metric in bounds:
            key = metric["name"]
            if key not in new.get("e2e", {}) or key not in old.get("e2e", {}):
                problems.append(f"{name} {key}: missing from a report")
                continue
            base, value = old["e2e"][key], new["e2e"][key]
            change = (value - base) / base
            worse = -change if metric["better"] == "higher" else change
            direction = "worse" if worse > 0 else "better" if worse < 0 else "same"
            verdict = "FAIL" if worse > metric["bound"] else "ok"
            print(f"  {name:<12} {key:<12} {base:>10.4f} -> {value:>10.4f} "
                  f"{change:>+8.1%} {direction:<6} (bound {metric['bound']:.0%}) "
                  f"{verdict}")
            if worse > metric["bound"]:
                problems.append(f"{name} {key}: {value:.4f} is {worse:.1%} worse "
                                f"than {bench_name}'s {base:.4f}, bound "
                                f"{metric['bound']:.0%}")
    return problems


def tier_ab() -> list[str]:
    """Columnar must keep at least TIER_FLOOR of the fast tier's rate."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.engine.machine import ENGINE_TIERS
    from repro.engine.simulation import Simulator
    from repro.experiments.common import QUICK, build_named_workload, config_for
    from repro.os.kernel import HugePagePolicy

    workload = build_named_workload("BFS", graph_scale=QUICK.graph_scale,
                                    proxy_accesses=QUICK.proxy_accesses)
    config = config_for(workload)

    def timed(tier: str) -> float:
        simulator = Simulator(config, policy=HugePagePolicy.PCC, tier=tier)
        run_workload = copy.deepcopy(workload)
        start = time.perf_counter()
        simulator.run([run_workload])
        return time.perf_counter() - start

    tiers = ENGINE_TIERS[1:]  # fast, columnar
    for tier in tiers:  # warm-up lap: code paths hot
        timed(tier)
    best = {tier: float("inf") for tier in tiers}
    for _ in range(TIER_ROUNDS):
        for tier in tiers:
            best[tier] = min(best[tier], timed(tier))
    ratio = best["fast"] / best["columnar"]
    print(f"tier A/B, quick BFS under PCC, best of {TIER_ROUNDS} interleaved: "
          f"fast {best['fast']:.3f} s, columnar {best['columnar']:.3f} s, "
          f"columnar/fast rate {ratio:.3f} (floor {TIER_FLOOR:.2f})")
    if ratio < TIER_FLOOR:
        return [f"tier A/B: columnar runs at {ratio:.3f} of the fast tier's "
                f"rate, floor {TIER_FLOOR:.2f}"]
    return []


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    bench_path = newest_bench()
    report = by_workload(Path(argv[0]))
    bench = by_workload(bench_path)
    if report is None:
        problems = [f"{argv[0]} is not a `python -m bench run --out` report"]
    elif bench is None:
        problems = [f"{bench_path.name} is not a `python -m bench run --out` "
                    "report; commit one with `make bench`"]
    else:
        print(f"{argv[0]} against {bench_path.name}:")
        problems = compare(report, bench, bench_path.name)
    problems += tier_ab()
    for problem in problems:
        print(f"perf gate FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("perf gate OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
