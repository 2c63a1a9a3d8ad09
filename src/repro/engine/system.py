"""Workload-to-hardware binding for simulation runs.

A :class:`ThreadWorkload` is one address stream pinned to one core; a
:class:`ProcessWorkload` groups the threads sharing an address space
(and therefore a page table). Single-thread runs are a process with one
thread; the multithread experiments (Fig. 8) give one process several
threads; the multiprocess ones (Fig. 9) run several single-thread
processes side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.events import CompressedTrace, Trace
from repro.vm.layout import AddressSpaceLayout


@dataclass
class ThreadWorkload:
    """One thread's compressed trace, bound to a core at run time."""

    trace: CompressedTrace
    core: int = -1  # assigned by the simulator if negative
    #: memoized columnar encoding (one per thread, engine-built)
    _stream: object = field(default=None, repr=False, compare=False)

    @classmethod
    def from_trace(cls, trace: Trace, core: int = -1) -> "ThreadWorkload":
        """Compress a raw trace into a core-bindable thread."""
        return cls(trace=trace.compress(), core=core)

    def columnar_stream(self, cache=None):
        """This thread's whole-stream columnar encoding.

        The stream-emission half of the columnar engine tier: encodes
        the compressed trace once (optionally persisted content-
        addressed through a :class:`~repro.trace.cache.TraceCache`) and
        memoizes it, so a workload re-run across tiers or machines pays
        the encoding a single time.
        """
        from repro.engine.columnar import ColumnarStream

        if self._stream is None:
            self._stream = ColumnarStream.from_trace(self.trace, cache=cache)
        return self._stream


@dataclass
class ProcessWorkload:
    """One process: shared layout + page table, one or more threads."""

    name: str
    layout: AddressSpaceLayout
    threads: list[ThreadWorkload]
    pid: int = -1  # assigned by the simulator if negative

    @classmethod
    def single_thread(
        cls, trace: Trace, layout: AddressSpaceLayout, name: str | None = None
    ) -> "ProcessWorkload":
        """One thread, one address space: the single-thread case."""
        return cls(
            name=name or trace.name,
            layout=layout,
            threads=[ThreadWorkload.from_trace(trace)],
        )

    @classmethod
    def multi_thread(
        cls,
        traces: list[Trace],
        layout: AddressSpaceLayout,
        name: str,
    ) -> "ProcessWorkload":
        """Several threads sharing one address space (Fig. 8 runs)."""
        return cls(
            name=name,
            layout=layout,
            threads=[ThreadWorkload.from_trace(t) for t in traces],
        )

    @property
    def footprint_bytes(self) -> int:
        """Bytes allocated across the process's VMAs."""
        return self.layout.footprint_bytes

    @property
    def total_accesses(self) -> int:
        """Raw memory accesses across all threads."""
        return sum(t.trace.total_accesses for t in self.threads)

    def footprint_huge_regions(self) -> int:
        """2MB regions spanned by the process's VMAs (the '100%' of the
        paper's utility-curve budget axis)."""
        return self.layout.huge_region_count


def partition_trace(trace: Trace, parts: int, layout: AddressSpaceLayout) -> list[Trace]:
    """Split one trace into ``parts`` contiguous slices, one per thread.

    A crude but adequate model of static work partitioning: each thread
    replays a contiguous span of the program's accesses.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    slices = np.array_split(trace.addresses, parts)
    return [
        Trace(
            name=f"{trace.name}.t{i}",
            addresses=part,
            footprint_bytes=trace.footprint_bytes,
            metadata=dict(trace.metadata),
        )
        for i, part in enumerate(slices)
    ]
