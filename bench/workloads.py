"""The sweep workloads: their spec lists, input construction and checks.

The spec lists live here, not in ``repro.experiments``, so editing a
figure module cannot silently change what the benchmark measures. With
``seed=None`` each list is the one its figure module runs at the same
scale (``fig7.run(scale)``, ``fig7.run(scale, tlb_replacement="plru")``
and ``fig8.run(scale)``); a seed goes to every graph it builds.

The graph scales are below the CLI's quick scale (13) because a run
must repeat each sweep several times; at these scales the paper-shape
orderings hold on every seed tried and each workload's layers keep
their share of the time (see README.md).

An *op* is one ``Simulator.run`` call: a bar of Fig. 7 or one policy of
a Fig. 8 cell. Ops are what ``attempted``/``failed`` count and what the
per-op latency metrics time.

After its sweep a rep replays the op list from the run journal the
sweep filled (``resume=True``), which is what ``repro --resume`` pays
for a finished sweep: every op is a results-journal load, no
simulation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

APPS = ("BFS", "SSSP", "PR")

#: the quick scale's proxy length; graph apps ignore it, but it is part
#: of every RunSpec (and so of every journal key)
PROXY_ACCESSES = 250_000

#: Fig. 7's memory fragmentation
FRAGMENTATION = 0.9

#: Fig. 8's thread counts, footprint budget and per-thread serialization
THREAD_COUNTS = (2, 4, 8)
BUDGET_PERCENT = 4
SERIALIZATION_PER_THREAD = 0.35


@dataclass
class SweepOutcome:
    """What one sweep produced: every op's result and wall time."""

    results: list = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class SweepWorkload:
    """One sweep workload: build inputs, run them, check the results."""

    name: str
    ops: int
    #: the smallest graph scale at which the paper orderings hold and the
    #: layer split is kept (below 11, mt-threads runs no quantum spans)
    graph_scale: int
    setup: Callable[[int | None, int], object]
    sweep: Callable[[object], SweepOutcome]
    #: the op list again, resumed from ``journal``: every op a replay
    replay: Callable[[object, object], list]
    check: Callable[[list], list[str]]


# ----------------------------------------------------------------------
# shared helpers


@contextlib.contextmanager
def timed_ops(module, attr: str, op_seconds: list[float]):
    """Record the wall time of every call to ``module.attr`` meanwhile."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            op_seconds.append(time.perf_counter() - start)

    timed.__module__ = original.__module__
    timed.__qualname__ = original.__qualname__
    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


def stats_digest(results) -> str:
    """Hash of every run's simulated statistics, in op order.

    Covers cycles, walks, L1/L2 hits, promotions, demotions and the
    promotion timeline: everything a figure is computed from. Host
    timing never enters it, so it must repeat exactly across reps,
    runs and commits that claim bit-identical simulation.
    """
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps([
            result.total_cycles, result.walks, result.l1_hits,
            result.l2_hits, result.promotions, result.demotions,
            [list(point) for point in result.promotion_timeline],
        ]).encode())
    return digest.hexdigest()[:16]


def _geomean(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


# ----------------------------------------------------------------------
# frag-lru / frag-plru: Fig. 7 under 90% fragmentation


def frag_specs(replacement: str, seed: int | None, graph_scale: int) -> list:
    """Fig. 7's 15 specs: per app, 4KB / HawkEye / THP / PCC / PCC+demotion."""
    from repro.experiments.common import RunSpec
    from repro.os.kernel import HugePagePolicy

    specs = []
    for app in APPS:
        common = dict(app=app, graph_scale=graph_scale,
                      proxy_accesses=PROXY_ACCESSES, seed=seed,
                      tlb_replacement=replacement)
        specs.append(RunSpec(policy=HugePagePolicy.NONE.value, **common))
        for policy in (HugePagePolicy.HAWKEYE, HugePagePolicy.LINUX_THP,
                       HugePagePolicy.PCC):
            specs.append(RunSpec(policy=policy.value,
                                 fragmentation=FRAGMENTATION, **common))
        specs.append(RunSpec(policy=HugePagePolicy.PCC.value,
                             fragmentation=FRAGMENTATION, demotion=True,
                             **common))
    return specs


def _frag_setup(replacement: str):
    def setup(seed: int | None, graph_scale: int) -> list:
        from repro.experiments.common import build_named_workload

        specs = frag_specs(replacement, seed, graph_scale)
        # run_specs rebuilds each workload through the same in-process
        # cache; building here moves that cost into set-up
        for spec in specs:
            build_named_workload(spec.app, dataset=spec.dataset,
                                 graph_scale=spec.graph_scale,
                                 proxy_accesses=spec.proxy_accesses,
                                 seed=spec.seed)
        return specs

    return setup


def _frag_sweep(specs: list) -> SweepOutcome:
    from repro.experiments import common

    outcome = SweepOutcome()
    with timed_ops(common, "execute_spec", outcome.op_seconds):
        outcome.results = common.run_specs(specs, jobs=1)
    return outcome


def _frag_replay(specs: list, journal) -> list:
    from repro.experiments import common

    return common.run_specs(specs, jobs=1, resume=True, journal=journal)


def frag_check(results: list) -> list[str]:
    """The orderings ``benchmarks/bench_fig7_fragmentation.py`` asserts."""
    columns: dict[str, list[float]] = {
        "hawkeye": [], "linux": [], "pcc": [], "pcc_demote": []}
    for index in range(len(APPS)):
        base, hawkeye, linux, pcc, demote = results[5 * index:5 * index + 5]
        for key, result in zip(columns, (hawkeye, linux, pcc, demote)):
            columns[key].append(base.total_cycles / result.total_cycles)
    means = {key: _geomean(values) for key, values in columns.items()}
    checks = {
        "PCC geomean > 1.1x": means["pcc"] > 1.1,
        "PCC > 1.05x Linux THP": means["pcc"] > means["linux"] * 1.05,
        "PCC > 1.02x HawkEye": means["pcc"] > means["hawkeye"] * 1.02,
        "Linux THP < 1.15x": means["linux"] < 1.15,
        "demotion within 0.12 of PCC": abs(means["pcc_demote"] - means["pcc"]) < 0.12,
    }
    shown = ", ".join(f"{key} {value:.3f}x" for key, value in means.items())
    return [f"fig7 ordering failed: {name} ({shown})"
            for name, ok in checks.items() if not ok]


# ----------------------------------------------------------------------
# mt-threads: Fig. 8's multithreaded cells


class MtCells:
    """The fan-out task: one (app, threads) cell's four simulations.

    Holds the prebuilt workloads, so the sweep times simulation only;
    ``fan_out`` runs serially (``jobs=1``), so nothing is pickled.
    """

    def __init__(self, workloads: dict) -> None:
        self.workloads = workloads
        self.op_seconds: list[float] = []

    def __repr__(self) -> str:
        return "bench.workloads.MtCells"

    def __call__(self, task: tuple) -> list:
        from repro.analysis.utility import budget_regions_for
        from repro.engine.simulation import Simulator
        from repro.experiments.common import clone_workload, config_for
        from repro.os.kernel import HugePagePolicy, KernelParams

        app, threads = task
        workload = self.workloads[(app, threads)]
        config = config_for(workload).with_(cores=threads)
        budget = budget_regions_for(workload, BUDGET_PERCENT)
        runs = [(HugePagePolicy.NONE, None), (HugePagePolicy.IDEAL, None)]
        for promotion_policy in (1, 0):  # highest frequency, round robin
            runs.append((HugePagePolicy.PCC, KernelParams(
                regions_to_promote=config.os.regions_to_promote,
                promotion_policy=promotion_policy,
                promotion_budget_regions=budget,
            )))
        results = []
        for policy, params in runs:
            start = time.perf_counter()
            simulator = Simulator(
                config, policy=policy, params=params,
                serialization_cycles_per_access=(
                    SERIALIZATION_PER_THREAD * (threads - 1)),
            )
            results.append(simulator.run([clone_workload(workload)]))
            self.op_seconds.append(time.perf_counter() - start)
        return results


def _mt_setup(seed: int | None, graph_scale: int) -> MtCells:
    from repro.engine.system import ProcessWorkload, partition_trace
    from repro.workloads import registry
    from repro.workloads.bfs import bfs_trace
    from repro.workloads.pagerank import pagerank_trace
    from repro.workloads.sssp import sssp_trace

    graph_kwargs = {} if seed is None else {"seed": seed}
    graph = registry.build_graph("kronecker", scale=graph_scale, **graph_kwargs)
    trace_functions = {"BFS": bfs_trace, "SSSP": sssp_trace, "PR": pagerank_trace}
    workloads = {}
    for app in APPS:
        trace, glayout = trace_functions[app](graph)
        for threads in THREAD_COUNTS:
            parts = partition_trace(trace, threads, glayout.layout)
            workloads[(app, threads)] = ProcessWorkload.multi_thread(
                parts, glayout.layout, name=f"{app}x{threads}")
    return MtCells(workloads)


#: Fig. 8's cells, in figure order
MT_TASKS = [(app, threads) for app in APPS for threads in THREAD_COUNTS]


def _mt_sweep(cells: MtCells) -> SweepOutcome:
    from repro.experiments import parallel
    from repro.resilience.journal import journal_from_env

    cells.op_seconds = []
    per_cell = parallel.fan_out(cells, MT_TASKS, jobs=1, journal=journal_from_env())
    return SweepOutcome(
        results=[result for cell in per_cell for result in cell],
        op_seconds=cells.op_seconds,
    )


def _mt_replay(cells: MtCells, journal) -> list:
    from repro.experiments import parallel

    per_cell = parallel.fan_out(cells, MT_TASKS, jobs=1, journal=journal, resume=True)
    return [result for cell in per_cell for result in cell]


def mt_check(results: list) -> list[str]:
    """The orderings ``benchmarks/bench_fig8_multithread.py`` asserts."""
    problems = []
    cells = []
    for index, (app, threads) in enumerate(MT_TASKS):
        base, ideal, frequency, round_robin = results[4 * index:4 * index + 4]
        cell = (app, threads,
                base.total_cycles / frequency.total_cycles,
                base.total_cycles / round_robin.total_cycles,
                base.total_cycles / ideal.total_cycles)
        cells.append(cell)
        _, _, freq, rr, best = cell
        if freq <= 0.95 or rr <= 0.95:
            problems.append(f"fig8 {app}x{threads}: a policy lost to 4KB "
                            f"(frequency {freq:.3f}x, round-robin {rr:.3f}x)")
        if freq > best + 0.08:
            problems.append(f"fig8 {app}x{threads}: frequency {freq:.3f}x "
                            f"above the all-huge ideal {best:.3f}x")
    freq_mean = sum(cell[2] for cell in cells) / len(cells)
    rr_mean = sum(cell[3] for cell in cells) / len(cells)
    if freq_mean < rr_mean - 0.03:
        problems.append(f"fig8: frequency mean {freq_mean:.3f}x below "
                        f"round-robin mean {rr_mean:.3f}x")
    for app in APPS:
        by_threads = {cell[1]: cell[2] for cell in cells if cell[0] == app}
        fewest, most = min(by_threads), max(by_threads)
        if by_threads[most] > by_threads[fewest] + 0.15:
            problems.append(f"fig8 {app}: {most} threads gain more than "
                            f"{fewest} threads")
    return problems


SWEEPS = {
    "frag-lru": SweepWorkload("frag-lru", 15, 10, _frag_setup("lru"), _frag_sweep,
                              _frag_replay, frag_check),
    "frag-plru": SweepWorkload("frag-plru", 15, 10, _frag_setup("plru"), _frag_sweep,
                               _frag_replay, frag_check),
    "mt-threads": SweepWorkload("mt-threads", 4 * len(MT_TASKS), 11,
                                _mt_setup, _mt_sweep, _mt_replay, mt_check),
}
