"""Run results, and ``Simulator``: the engine under its public name.

``Simulator`` is :class:`repro.engine.machine.Machine` itself (the same
class, not a wrapper), so experiments, benchmarks and the offline
replay construct and subclass the one engine object. This module also
holds what a run returns: :class:`SimulationResult` and its per-process
:class:`ProcessResult`.

Threads are interleaved round-robin in fixed access quanta to model
concurrent execution; per-core cycle ledgers are kept separately and
the run's wall-clock proxy is the maximum per-core total plus the
serialization charge (§5.2's atomics effect). The OS promotion tick
fires every ``promote_every_accesses`` accesses — the simulation
analogue of the paper's 30-second interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.machine import Machine
from repro.engine.timing import RuntimeBreakdown


@dataclass
class ProcessResult:
    """Per-process outputs of one run."""

    pid: int
    name: str
    accesses: int
    walks: int
    huge_pages: int
    footprint_regions: int

    @property
    def walk_rate(self) -> float:
        """This process's page-table-walk rate."""
        return self.walks / self.accesses if self.accesses else 0.0


@dataclass
class SimulationResult:
    """Everything a run produced, ready for speedup/report computation."""

    policy: str
    total_cycles: int
    per_core: list[RuntimeBreakdown]
    processes: list[ProcessResult]
    accesses: int
    walks: int
    l1_hits: int
    l2_hits: int
    promotions: int
    demotions: int
    promotion_timeline: list[tuple[int, int]] = field(default_factory=list)
    #: (pid -> number of THPs) sampled at each interval, for Fig. 9
    huge_page_timeline: list[dict[int, int]] = field(default_factory=list)
    #: ``repro.metrics/v1`` export of every counter the run registered
    metrics: dict | None = None

    @property
    def walk_rate(self) -> float:
        """PTW %: fraction of accesses missing the whole TLB hierarchy."""
        return self.walks / self.accesses if self.accesses else 0.0

    @property
    def tlb_miss_rate(self) -> float:
        """Alias: the paper uses "TLB miss %" for the walk rate."""
        return self.walk_rate


#: The engine's public name: every experiment constructs ``Simulator``.
Simulator = Machine
