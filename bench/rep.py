"""One sweep rep in a fresh interpreter (what a ``repro`` CLI user pays).

Run by the harness as ``python -m bench.rep``; writes one JSON result
file. ``setup_done`` is a ``time.monotonic()`` reading (system-wide on
Linux), so the parent subtracts its own spawn time to get set-up time
from interpreter start through imports and workload builds.

After the timed sweep the rep replays the op list from the run journal
:data:`REPLAY_PASSES` times; ``replay_s`` is the median pass's time per
op. The replayed results must digest like the sweep's, and no op may
miss the journal (a miss would silently simulate again).

With ``--trace-out`` the layer wrappers are installed first and the
result also carries the per-layer ledger: ``layers`` for the whole rep
and ``sweep_layers`` for the timed sweep alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

#: journal replays of the op list per rep
REPLAY_PASSES = 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.rep")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    ledger = None
    if args.trace_out:
        from bench.layers import Ledger

        ledger = Ledger()
        ledger.install()
    from bench.workloads import SWEEPS, stats_digest
    from repro.resilience.journal import journal_from_env

    workload = SWEEPS[args.workload]
    doc: dict = {"workload": workload.name, "attempted": workload.ops}
    try:
        plan = workload.setup(args.seed, workload.graph_scale)
        doc["setup_done"] = time.monotonic()
        before = ledger.totals() if ledger is not None else None
        start = time.perf_counter()
        outcome = workload.sweep(plan)
        doc["sweep_s"] = time.perf_counter() - start
        if ledger is not None:
            doc["sweep_layers"] = ledger.totals()
        problems = workload.check(outcome.results)
        doc["op_seconds"] = outcome.op_seconds
        doc["digest"] = stats_digest(outcome.results)

        journal = journal_from_env()
        passes = []
        for _ in range(REPLAY_PASSES):
            start = time.perf_counter()
            replayed = workload.replay(plan, journal)
            passes.append(time.perf_counter() - start)
            if stats_digest(replayed) != doc["digest"]:
                problems.append("a journal replay differs from the sweep")
        if journal.stats.misses:
            problems.append(f"{journal.stats.misses} replayed ops missed the journal")
        doc["replay_s"] = statistics.median(passes) / workload.ops
        doc["replay_total_s"] = sum(passes)
    except Exception:
        problems = [traceback.format_exc()]
    doc["problems"] = problems
    # a failed check fails every op of the rep: the figure is wrong
    doc["failed"] = workload.ops if problems else 0
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ledger is not None and "sweep_layers" in doc:
        from bench.layers import diff_totals

        doc["layers"] = ledger.totals()
        doc["sweep_layers"] = diff_totals(doc["sweep_layers"], before)
        ledger.write_trace(args.trace_out, run_id=f"bench-{workload.name}")
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
