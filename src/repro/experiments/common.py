"""Shared scaffolding for the per-figure experiments.

All experiments run on the :func:`repro.config.scaled_config` machine,
with physical memory sized relative to each workload's footprint so the
fragmentation fractions of §5.1.1 stress huge-page availability the way
the paper's 10-38GB footprints stressed its 128GB testbed.

Workload construction is cached at two levels. An in-process
``lru_cache`` holds each built :class:`ProcessWorkload` for the life of
the interpreter; every consumer receives a **defensive clone** (fresh
workload/thread/trace shells around the shared immutable trace arrays),
so a simulation run can never mutate the cached instance another run
will receive — the simulator writes ``pid`` and core bindings into the
workloads it is handed. Beneath that, an optional content-addressed
disk cache (:mod:`repro.trace.cache`) persists the compressed
``(vpns, counts)`` streams; parallel ``--jobs`` runs memory-map those
entries so no worker regenerates or re-pickles a trace another
configuration already produced.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.config import SystemConfig, scaled_config
from repro.engine.simulation import SimulationResult, Simulator
from repro.engine.system import ProcessWorkload, ThreadWorkload
from repro.obs.tracer import span
from repro.os.kernel import HugePagePolicy, KernelParams
from repro.trace.events import CompressedTrace
from repro.workloads.registry import build_workload

#: memory = footprint x this factor in fragmentation experiments
MEMORY_HEADROOM = 1.3


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime."""

    name: str
    graph_scale: int
    proxy_accesses: int
    pagerank_iterations: int = 2

    def workload(self, app: str, dataset: str = "kronecker", **kwargs) -> ProcessWorkload:
        return build_named_workload(
            app,
            dataset=dataset,
            graph_scale=self.graph_scale,
            proxy_accesses=self.proxy_accesses,
            **kwargs,
        )


#: Benchmark default: minutes for the full figure suite.
QUICK = ExperimentScale(name="quick", graph_scale=13, proxy_accesses=250_000)
#: Closer to the paper's regime; tens of minutes for the full suite.
FULL = ExperimentScale(name="full", graph_scale=15, proxy_accesses=600_000)


# ----------------------------------------------------------------------
# workload construction: lru cache + content-addressed disk cache


def _disk_cache():
    """The content-addressed trace cache, or ``None`` when disabled.

    Enabled by ``REPRO_TRACE_CACHE`` (a directory, or unset-with-jobs
    for the default location); ``REPRO_TRACE_CACHE=off`` disables it.
    Entries are keyed by (workload, dataset, scale, seed, generator
    version), so bumping the generator version orphans stale entries.
    """
    from repro.trace.cache import TraceCache

    directory = os.environ.get("REPRO_TRACE_CACHE")
    if not directory or directory.strip().lower() in ("0", "off", "none"):
        return None
    return TraceCache(directory)


def _cache_params(dataset: str, graph_scale: int, proxy_accesses: int,
                  sorted_dbg: bool, seed: int | None) -> dict:
    return {
        "dataset": dataset,
        "scale": graph_scale,
        "accesses": proxy_accesses,
        "sorted_dbg": sorted_dbg,
        "seed": seed,
    }


def workload_to_entry(workload: ProcessWorkload) -> tuple[dict, dict]:
    """Serialize a workload to (arrays, meta) for the disk cache.

    The compressed per-thread ``(vpns, counts)`` streams are stored as
    individual ``.npy`` arrays (memory-mappable); everything else —
    layout VMAs, access totals, trace metadata — goes in the JSON meta
    record.
    """
    arrays: dict[str, np.ndarray] = {}
    threads = []
    for index, thread in enumerate(workload.threads):
        trace = thread.trace
        arrays[f"vpns{index}"] = trace.vpns
        arrays[f"counts{index}"] = trace.counts
        threads.append(
            {
                "name": trace.name,
                "total_accesses": trace.total_accesses,
                "footprint_bytes": trace.footprint_bytes,
                "metadata": _jsonable_meta(trace.metadata),
            }
        )
    meta = {
        "name": workload.name,
        "threads": threads,
        "vmas": {vma.name: (vma.start, vma.length) for vma in workload.layout},
    }
    return arrays, meta


def workload_from_entry(entry) -> ProcessWorkload:
    """Rebuild a workload from a cache entry (arrays may be mmapped)."""
    from repro.vm.layout import AddressSpaceLayout

    layout = AddressSpaceLayout.from_vmas(
        {name: tuple(span) for name, span in entry.meta["vmas"].items()}
    )
    threads = []
    for index, info in enumerate(entry.meta["threads"]):
        trace = CompressedTrace(
            name=info["name"],
            vpns=entry.arrays[f"vpns{index}"],
            counts=entry.arrays[f"counts{index}"],
            total_accesses=info["total_accesses"],
            footprint_bytes=info["footprint_bytes"],
            metadata=dict(info.get("metadata") or {}),
        )
        threads.append(ThreadWorkload(trace=trace))
    return ProcessWorkload(name=entry.meta["name"], layout=layout, threads=threads)


def _jsonable_meta(value):
    from repro.trace.io import _jsonable

    return _jsonable(value)


@lru_cache(maxsize=32)
def _cached_workload(app: str, dataset: str, graph_scale: int, proxy_accesses: int,
                     sorted_dbg: bool, seed: int | None) -> ProcessWorkload:
    """Build (or load) one workload; callers must clone before use."""
    from repro.resilience.faults import fault_point

    params = _cache_params(dataset, graph_scale, proxy_accesses, sorted_dbg, seed)
    disk = _disk_cache()
    if disk is not None:
        entry = disk.get_entry(app, params)
        if entry is not None:
            return workload_from_entry(entry)
    fault_point("workload.build", detail=app)
    with span("workload.build", cat="workload", app=app, dataset=dataset,
              scale=graph_scale, accesses=proxy_accesses):
        workload = build_workload(
            app,
            dataset=dataset,
            scale=graph_scale,
            sorted_dbg=sorted_dbg,
            accesses=proxy_accesses,
            seed=seed,
        )
    if disk is not None:
        arrays, meta = workload_to_entry(workload)
        disk.put_entry(app, params, arrays, meta)
    return workload


def clone_workload(workload: ProcessWorkload) -> ProcessWorkload:
    """Defensive copy sharing the immutable trace arrays.

    Simulation runs mutate the workload shell — ``pid`` assignment,
    thread-to-core binding — but never the compressed address arrays.
    Cloning rebuilds every mutable layer (workload, threads, traces,
    layout, metadata dicts) around the same ``vpns``/``counts`` arrays,
    so cached instances stay pristine and clones stay cheap even for
    multi-million-record traces.
    """
    threads = [
        ThreadWorkload(
            trace=CompressedTrace(
                name=t.trace.name,
                vpns=t.trace.vpns,
                counts=t.trace.counts,
                total_accesses=t.trace.total_accesses,
                footprint_bytes=t.trace.footprint_bytes,
                metadata=dict(t.trace.metadata),
            ),
            core=t.core,
        )
        for t in workload.threads
    ]
    return ProcessWorkload(
        name=workload.name,
        layout=copy.deepcopy(workload.layout),
        threads=threads,
        pid=workload.pid,
    )


def build_named_workload(
    app: str,
    dataset: str = "kronecker",
    graph_scale: int = 14,
    proxy_accesses: int = 400_000,
    sorted_dbg: bool = False,
    seed: int | None = None,
) -> ProcessWorkload:
    """Cached workload construction (trace generation dominates setup).

    Always returns a defensive clone of the cached instance — runs may
    freely mutate the result without aliasing other runs.
    """
    cached = _cached_workload(
        app, dataset, graph_scale, proxy_accesses, sorted_dbg, seed
    )
    return clone_workload(cached)


def cached_process_workload(name: str, params: dict, builder) -> ProcessWorkload:
    """Disk-cache an arbitrarily built workload (e.g. fig8's threaded
    partitions), bypassing the named-workload registry.

    ``builder()`` runs on a miss; the result is serialized through
    :func:`workload_to_entry` so later runs (and concurrent workers —
    writes are atomic, last-writer-wins on identical content)
    memory-map the stored arrays. A no-op pass-through when the disk
    cache is disabled.
    """
    disk = _disk_cache()
    if disk is not None:
        entry = disk.get_entry(name, params)
        if entry is not None:
            return workload_from_entry(entry)
    with span("workload.build", cat="workload", app=name):
        workload = builder()
    if disk is not None:
        arrays, meta = workload_to_entry(workload)
        disk.put_entry(name, params, arrays, meta)
    return workload


def ensure_workload_cached(
    app: str,
    dataset: str = "kronecker",
    graph_scale: int = 14,
    proxy_accesses: int = 400_000,
    sorted_dbg: bool = False,
    seed: int | None = None,
) -> None:
    """Make sure the disk cache holds this workload's trace entry.

    Used by the parallel runner to pre-warm the cache from the parent
    before farming configurations out, so workers memory-map one shared
    entry instead of racing to regenerate it. A no-op when the disk
    cache is disabled.
    """
    disk = _disk_cache()
    if disk is None:
        return
    params = _cache_params(dataset, graph_scale, proxy_accesses, sorted_dbg, seed)
    if disk.get_entry(app, params) is not None:
        return
    workload = _cached_workload(
        app, dataset, graph_scale, proxy_accesses, sorted_dbg, seed
    )
    arrays, meta = workload_to_entry(workload)
    disk.put_entry(app, params, arrays, meta)


# ----------------------------------------------------------------------
# machine sizing


def memory_for(*workloads: ProcessWorkload) -> int:
    """Physical memory sized for the combined footprint.

    Sized by touched 2MB regions rather than raw bytes: an all-huge
    allocation (the ideal bound) needs one whole frame per region, so
    byte-level sizing would under-provision workloads whose VMAs only
    partially fill their last region.
    """
    regions = sum(w.footprint_huge_regions() for w in workloads)
    return max(8 << 21, int(regions * (2 << 20) * MEMORY_HEADROOM))


def config_for(*workloads: ProcessWorkload, **overrides) -> SystemConfig:
    """Machine sized for the workloads.

    The promotion interval adapts to trace length so every run spans
    roughly the paper's count of 30-second intervals (~20-40 per run),
    regardless of how far the trace was scaled down.
    """
    total_accesses = sum(w.total_accesses for w in workloads)
    overrides.setdefault(
        "promote_every_accesses",
        min(60_000, max(5_000, total_accesses // 24)),
    )
    return scaled_config(memory_bytes=memory_for(*workloads), **overrides)


def run_policy(
    workload: ProcessWorkload,
    policy: HugePagePolicy,
    config: SystemConfig | None = None,
    fragmentation: float = 0.0,
    budget_regions: int | None = None,
    params: KernelParams | None = None,
) -> SimulationResult:
    """One simulation run of one workload under one policy."""
    config = config or config_for(workload)
    if params is None and budget_regions is not None:
        params = KernelParams(
            regions_to_promote=config.os.regions_to_promote,
            promotion_policy=config.os.promotion_policy,
            scan_pages_per_interval=config.os.scan_pages_per_interval,
            promotion_budget_regions=budget_regions,
        )
    simulator = Simulator(
        config,
        policy=policy,
        params=params,
        fragmentation=fragmentation,
    )
    return simulator.run([clone_workload(workload)])


def demotion_params(config: SystemConfig, budget_regions: int | None = None
                    ) -> KernelParams:
    """Kernel parameters with PCC-driven demotion enabled (§3.3.3)."""
    return KernelParams(
        regions_to_promote=config.os.regions_to_promote,
        promotion_policy=config.os.promotion_policy,
        scan_pages_per_interval=config.os.scan_pages_per_interval,
        promotion_budget_regions=budget_regions,
        demotion_enabled=True,
    )


# ----------------------------------------------------------------------
# parallel fan-out of independent (workload x policy) configurations


@dataclass(frozen=True)
class RunSpec:
    """One self-contained simulation configuration.

    A spec carries everything a worker process needs to deterministically
    rebuild the workload (through the trace cache), size the machine,
    and run one policy — so sweeps fan out as plain picklable values.
    """

    app: str
    policy: str  # HugePagePolicy value
    dataset: str = "kronecker"
    graph_scale: int = 13
    proxy_accesses: int = 250_000
    fragmentation: float = 0.0
    #: promotion footprint budget as a percent of the app footprint
    budget_percent: int | None = None
    demotion: bool = False
    promote_every_accesses: int | None = None
    seed: int | None = None
    #: caller-side tag for reassembling sweep results
    label: str = ""
    #: TLB victim policy ablation axis (``lru``/``plru``). Part of the
    #: spec so journal keys distinguish it: a plru sweep must never
    #: resume from an lru checkpoint.
    tlb_replacement: str = "lru"

    @classmethod
    def for_scale(cls, scale: ExperimentScale, app: str, policy: HugePagePolicy,
                  **kwargs) -> "RunSpec":
        return cls(
            app=app,
            policy=policy.value,
            graph_scale=scale.graph_scale,
            proxy_accesses=scale.proxy_accesses,
            **kwargs,
        )


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Run one :class:`RunSpec` (the process-pool task function)."""
    from repro.analysis.utility import budget_regions_for

    workload = build_named_workload(
        spec.app,
        dataset=spec.dataset,
        graph_scale=spec.graph_scale,
        proxy_accesses=spec.proxy_accesses,
        seed=spec.seed,
    )
    overrides = {}
    if spec.promote_every_accesses is not None:
        overrides["promote_every_accesses"] = spec.promote_every_accesses
    config = config_for(workload, **overrides)
    if spec.tlb_replacement != "lru":
        config = config.with_tlb_replacement(spec.tlb_replacement)
    policy = HugePagePolicy(spec.policy)
    budget = None
    if spec.budget_percent is not None:
        budget = budget_regions_for(workload, spec.budget_percent)
        if budget == 0 and not spec.demotion:
            # A zero budget is the 4KB baseline: run it as NONE, the
            # same swap utility.run_budget_point performs.
            policy = HugePagePolicy.NONE
            budget = None
    params = demotion_params(config, budget) if spec.demotion else None
    return run_policy(
        workload,
        policy,
        config,
        fragmentation=spec.fragmentation,
        budget_regions=budget,
        params=params,
    )


def parallel_cache_dir():
    """Trace-cache directory used for a parallel run.

    Honors ``REPRO_TRACE_CACHE`` when set to a directory; otherwise the
    default user cache location. Parallel runs always use a disk cache —
    it is the mechanism that keeps workers from regenerating traces.
    """
    from repro.trace.cache import cache_dir_from_env, default_cache_dir

    return cache_dir_from_env() or default_cache_dir()


def prewarm_trace_cache(specs, cache_dir=None) -> None:
    """Write every unique workload among ``specs`` to the disk cache.

    Before warming, tmp files orphaned by previously crashed writers
    are swept (:meth:`~repro.trace.cache.TraceCache.recover_stale`).
    Each warm-up is retried through a small bounded loop so a transient
    builder failure (including an injected one) never kills the sweep
    before it even fans out.
    """
    import time as _time

    from repro.trace.cache import CACHE_DIR_ENV, TraceCache

    cache_dir = cache_dir or parallel_cache_dir()
    TraceCache(cache_dir).recover_stale()
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(cache_dir)
    try:
        seen = set()
        for spec in specs:
            ident = (spec.app, spec.dataset, spec.graph_scale,
                     spec.proxy_accesses, spec.seed)
            if ident in seen:
                continue
            seen.add(ident)
            for attempt in range(3):
                try:
                    ensure_workload_cached(
                        spec.app,
                        dataset=spec.dataset,
                        graph_scale=spec.graph_scale,
                        proxy_accesses=spec.proxy_accesses,
                        seed=spec.seed,
                    )
                    break
                except Exception:
                    if attempt == 2:
                        raise
                    _time.sleep(0.05 * (attempt + 1))
    finally:
        if previous is None:
            del os.environ[CACHE_DIR_ENV]
        else:
            os.environ[CACHE_DIR_ENV] = previous


def run_specs(
    specs,
    jobs: int | None = None,
    resume: bool = False,
    journal=None,
    policy=None,
    progress_label: str | None = None,
) -> list[SimulationResult]:
    """Run many independent specs, serially or across a process pool.

    With ``jobs > 1`` the trace cache is pre-warmed from the parent
    (one write per unique workload) and every worker memory-maps the
    shared entries. Results come back in spec order and their metrics
    exports are republished to the parent's collectors, so serial and
    parallel runs are observationally identical.

    Execution is resilient (see :func:`repro.experiments.parallel.fan_out`):
    failed specs are retried with backoff, crashed or hung workers
    recycle the pool, and — when a journal is active (``journal``
    argument or ``$REPRO_JOURNAL``) — every completed spec's result is
    checkpoint-committed so ``resume=True`` skips it after a kill.
    """
    from repro.experiments.parallel import fan_out, resolve_jobs
    from repro.resilience.journal import journal_from_env

    specs = list(specs)
    if journal is None:
        journal = journal_from_env()
    cache_dir = None
    jobs_effective = 1
    if resolve_jobs(jobs) > 1 and len(specs) > 1:
        cache_dir = parallel_cache_dir()
        prewarm_trace_cache(specs, cache_dir)
        jobs_effective = jobs
    return fan_out(
        execute_spec,
        specs,
        jobs=jobs_effective,
        cache_dir=cache_dir,
        policy=policy,
        journal=journal,
        resume=resume,
        progress_label=progress_label,
    )
