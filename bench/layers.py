"""Outside-in layer tracer: wrap each layer's public functions from here.

The simulator has no in-program stage timers yet, so the benchmark
measures its layers from the outside. :class:`Ledger.install` replaces
each function in :data:`TARGETS` at the name its caller looks it up
under (``repro.engine.machine.classify_lru_hits``, not the defining
module, because ``machine`` imported it by name) with a wrapper that
times the call. Per thread, a stack of open calls turns the totals into
self time: a call's self time is its duration minus the time its
wrapped children took.

Two kinds of target:

* coarse calls (a run, an epoch, an OS tick) also record a span, kept
  in memory and written at the end as ``repro.trace/v1`` Chrome JSON
  that ``repro inspect --check`` accepts;
* hot calls (per record or per walk) only accumulate totals, because a
  span per call would cost more memory than the run itself.

Wrappers are installed before any simulator object exists, because
several constructors cache bound methods (``Core`` keeps
``self.tlb.lookup``) and would otherwise keep calling the original.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path

TRACE_SCHEMA = "repro.trace/v1"

#: Layers whose self time is the remainder of what they contain: the
#: sweep loop, the run loop and the two quantum/epoch schedulers, plus
#: the serving daemon's job body. Everything else counts as named.
CONTAINERS = frozenset({
    "experiments.fan_out",
    "machine.run",
    "machine.run_epoch",
    "machine.run_quantum",
    "serve.execute_job",
})

#: Spans kept per process; later coarse calls still count in totals.
MAX_SPANS = 200_000

#: Engine counters folded from every ``Machine.run`` result's metrics
#: export (per-core ``coreN.fastpath.<name>`` readings, summed).
ENGINE_COUNTERS = (
    "columnar_epochs",
    "columnar_mt_epochs",
    "columnar_plru_fallbacks",
    "columnar_fallbacks",
    "columnar_retired",
    "columnar_residue_records",
    "batch_retired",
    "batch_fallbacks",
    "columnar_faults_batched",
    "columnar_faults_scalar",
)


def _count_len(position: int, key: str):
    """Extra counter: ``len`` of positional argument ``position``."""

    def hook(extra: dict, args, result) -> None:
        extra[key] = extra.get(key, 0) + len(args[position])

    return hook


def _count_hits(extra: dict, args, result) -> None:
    extra["hits"] = extra.get("hits", 0) + (result is not None)


def _fold_engine_counters(extra: dict, args, result) -> None:
    counters = (getattr(result, "metrics", None) or {}).get("counters", {})
    for name, value in counters.items():
        _, marker, short = name.partition(".fastpath.")
        if marker and short in ENGINE_COUNTERS:
            extra[short] = extra.get(short, 0) + value


#: (metric name, "module:attribute path", hot, extra-counter hook).
#: One metric name may appear twice when two callers import the same
#: function under their own names.
TARGETS = (
    ("workloads.build_workload", "repro.experiments.common:build_workload", False, None),
    ("workloads.build_graph", "repro.workloads.registry:build_graph", False, None),
    ("columnar.encode", "repro.engine.columnar:ColumnarStream.encode", False, None),
    ("columnar.classify_lru_hits", "repro.engine.machine:classify_lru_hits", True,
     _count_len(1, "touches")),
    ("columnar.classify_lru_hits", "repro.engine.residue:classify_lru_hits", True,
     _count_len(1, "touches")),
    ("residue.plan_walks", "repro.engine.residue:plan_walks", True, None),
    ("residue.apply_walk_plan", "repro.engine.residue:apply_walk_plan", True, None),
    ("residue.page_table_pass", "repro.engine.residue:page_table_pass", True, None),
    ("residue.l2_alias_conflict", "repro.engine.residue:l2_alias_conflict", True, None),
    ("residue.pwc_level_outcomes", "repro.engine.residue:pwc_level_outcomes", True, None),
    ("machine.run", "repro.engine.machine:Machine.run", False, _fold_engine_counters),
    ("machine.run_epoch", "repro.engine.machine:TranslationPipeline.run_epoch", False, None),
    ("machine.run_quantum", "repro.engine.machine:TranslationPipeline.run_quantum", True, None),
    ("machine.promotion_tick", "repro.engine.machine:Machine.promotion_tick", False, None),
    ("tlb.lookup", "repro.tlb.hierarchy:TLBHierarchy.lookup", True, None),
    ("tlb.lookup", "repro.tlb.hierarchy:TLBHierarchy._lookup_plru", True, None),
    ("tlb.walk", "repro.tlb.walker:PageTableWalker.walk", True, None),
    ("vm.page_table_walk", "repro.vm.pagetable:PageTable.walk", True, None),
    ("vm.map_base_bulk", "repro.vm.pagetable:PageTable.map_base_bulk", True, None),
    ("pcc.access_many", "repro.core.pcc:PromotionCandidateCache.access_many", True,
     _count_len(1, "events")),
    ("pcc.flush", "repro.core.pcc:PromotionCandidateCache.flush", True, None),
    ("os.promotion_tick", "repro.os.kernel:SimulatedKernel.promotion_tick", False, None),
    ("os.run_interval", "repro.os.promotion:PromotionEngine.run_interval", False, None),
    ("os.dump_write", "repro.core.dump:DumpRegion.write", True, None),
    ("os.dump_read", "repro.core.dump:DumpRegion.read_all", True, None),
    ("os.handle_fault", "repro.os.kernel:SimulatedKernel.handle_fault", True, None),
    ("os.handle_faults_bulk", "repro.os.kernel:SimulatedKernel.handle_faults_bulk", True,
     _count_len(2, "pages")),
    ("os.fragment", "repro.os.physmem:PhysicalMemory.fragment", False, None),
    ("metrics.export", "repro.metrics.registry:MetricsRegistry.export", False, None),
    ("journal.commit", "repro.resilience.journal:RunJournal.commit", False, None),
    ("journal.load", "repro.resilience.journal:RunJournal.load", False, _count_hits),
    ("experiments.fan_out", "repro.experiments.parallel:fan_out", False, None),
    ("serve.execute_job", "repro.serve.server:execute_job", False, None),
    ("serve.job_store_save", "repro.serve.lifecycle:JobStore.save", False, None),
    ("serve.try_admit", "repro.serve.admission:AdmissionController.try_admit", True, None),
)

#: Every metric name the targets produce, in table order.
LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))


def _resolve(path: str):
    """``"module:A.b"`` -> (owner object, attribute name)."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Ledger:
    """Per-layer time, self time, call counts and coarse spans.

    State is per thread (the serving daemon runs jobs on two executor
    threads at once); :meth:`totals` merges the threads' records.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._installed: list[tuple] = []
        self.epoch_ns = time.perf_counter_ns()
        self.spans: list[dict] = []
        self.spans_dropped = 0
        self._next_span = 0

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS`."""
        for name, path, hot, extra in TARGETS:
            owner, attr = _resolve(path)
            descriptor = vars(owner).get(attr) if isinstance(owner, type) else None
            if isinstance(descriptor, classmethod):
                wrapped = classmethod(self.wrap(descriptor.__func__, name, hot, extra))
                original = descriptor
            else:
                original = getattr(owner, attr)
                wrapped = self.wrap(original, name, hot, extra)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # recording

    def _thread_state(self):
        tls = self._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
            tls.records = {}
            with self._lock:
                # lanes 1.. in first-call order (lane 1 is "main" to
                # ``repro inspect``; 10 and up would read as cores)
                tls.tid = len(self._records) + 1
                self._records.append(tls.records)
        return stack, tls.records

    def wrap(self, fn, name: str, hot: bool, extra=None):
        """A timing wrapper around ``fn`` recording under ``name``."""
        perf_ns = time.perf_counter_ns
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, records = ledger._thread_state()
            parent = stack[-1][1] if stack else None
            span_id = parent if hot else ledger._new_span_id()
            frame = [0, span_id]
            stack.append(frame)
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record = records.get(name)
                if record is None:
                    record = records[name] = [0, 0, 0, {}]
                record[0] += elapsed
                record[1] += elapsed - frame[0]
                record[2] += 1
                if not hot:
                    ledger._span(name, start, elapsed, span_id, parent)
            if extra is not None:
                extra(record[3], args, result)
            return result

        return wrapper

    def _new_span_id(self) -> str:
        with self._lock:
            self._next_span += 1
            return f"b{self._next_span}"

    def _span(self, name, start_ns, elapsed_ns, span_id, parent) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        args = {"span": span_id}
        if parent is not None:
            args["parent"] = parent
        self.spans.append({
            "ph": "X",
            "name": name,
            "cat": name.split(".", 1)[0],
            "ts": round((start_ns - self.epoch_ns) / 1000.0, 3),
            "dur": round(elapsed_ns / 1000.0, 3),
            "pid": os.getpid(),
            "tid": self._tls.tid,
            "args": args,
        })

    # ------------------------------------------------------------------
    # reading

    def totals(self) -> dict[str, dict]:
        """``{layer: {"s", "self_s", "calls", extras...}}`` over all threads."""
        merged: dict[str, dict] = {
            name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in LAYER_NAMES
        }
        with self._lock:
            thread_records = list(self._records)
        for records in thread_records:
            for name, (total, own, calls, extra) in list(records.items()):
                out = merged[name]
                out["s"] += total / 1e9
                out["self_s"] += own / 1e9
                out["calls"] += calls
                for key, value in extra.items():
                    out[key] = out.get(key, 0) + value
        return merged

    def chrome_trace(self, run_id: str) -> dict:
        """The coarse spans as a ``repro.trace/v1`` document."""
        events = sorted(self.spans, key=lambda e: (e["ts"], e["tid"], e["name"]))
        pid = os.getpid()
        metadata = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                     "args": {"name": "bench"}}]
        for tid in sorted({event["tid"] for event in events}):
            metadata.append({"ph": "M", "name": "thread_name", "pid": pid,
                             "tid": tid, "args": {"name": f"lane-{tid}"}})
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, "run_id": run_id,
                          "spans_dropped": self.spans_dropped},
        }

    def write_trace(self, path: str | Path, run_id: str) -> None:
        Path(path).write_text(json.dumps(self.chrome_trace(run_id)))


def diff_totals(after: dict[str, dict], before: dict[str, dict]) -> dict[str, dict]:
    """Per-layer ``after - before`` (a window inside one traced run)."""
    return {
        name: {key: value - before.get(name, {}).get(key, 0)
               for key, value in fields.items()}
        for name, fields in after.items()
    }


def named_frac(totals: dict[str, dict], wall_s: float) -> float:
    """Self time of the non-container layers over ``wall_s``."""
    named = sum(fields["self_s"] for name, fields in totals.items()
                if name not in CONTAINERS)
    return named / wall_s if wall_s > 0 else 0.0


def render_table(totals: dict[str, dict], wall_s: float) -> str:
    """The per-layer table, largest self time first."""
    lines = [f"{'layer':<38}{'total s':>10}{'self s':>10}{'self %':>8}{'calls':>11}  extra"]
    for name, fields in sorted(totals.items(), key=lambda item: -item[1]["self_s"]):
        share = 100.0 * fields["self_s"] / wall_s if wall_s > 0 else 0.0
        extra = " ".join(f"{key}={value}" for key, value in sorted(fields.items())
                         if key not in ("s", "self_s", "calls"))
        marker = " (container)" if name in CONTAINERS else ""
        lines.append(
            f"{name + marker:<38}{fields['s']:>10.4f}{fields['self_s']:>10.4f}"
            f"{share:>7.1f}%{fields['calls']:>11}  {extra}"
        )
    lines.append(f"layers.named_frac = {named_frac(totals, wall_s):.4f} "
                 f"(named self time over {wall_s:.4f} s)")
    return "\n".join(lines)
