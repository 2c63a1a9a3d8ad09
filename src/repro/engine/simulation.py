"""The online simulation facade.

Historically this module held the whole run loop; it is now a thin
facade over :class:`repro.engine.machine.Machine`, which decomposes the
engine into a thread scheduler, per-core translation pipelines, a fault
path, and an OS tick driver. :class:`Simulator` keeps the public
surface every experiment, benchmark, and subclass relies on —
construction arguments, ``run()``, ``kernel``/``dump_region``
attributes, and the overridable ``_promotion_tick`` hook — while the
machine does the work.

Threads are interleaved round-robin in fixed access quanta to model
concurrent execution; per-core cycle ledgers are kept separately and
the run's wall-clock proxy is the maximum per-core total plus the
serialization charge (§5.2's atomics effect). The OS promotion tick
fires every ``promote_every_accesses`` accesses — the simulation
analogue of the paper's 30-second interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.engine.machine import Machine
from repro.engine.system import ProcessWorkload
from repro.engine.timing import RuntimeBreakdown
from repro.os.kernel import HugePagePolicy, KernelParams


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


class Simulator:
    """Online co-design simulation of one machine running workloads.

    A facade over :class:`~repro.engine.machine.Machine`. The tick
    indirection is deliberate: the machine calls back through
    ``self._promotion_tick`` at each interval, so subclasses (the
    offline replay's scheduled simulator) and monkeypatched ticks keep
    working exactly as they did against the monolithic loop.
    """

    def __init__(
        self,
        config: SystemConfig,
        policy: HugePagePolicy = HugePagePolicy.PCC,
        params: KernelParams | None = None,
        fragmentation: float = 0.0,
        thread_quantum: int = 2048,
        serialization_cycles_per_access: float = 0.0,
        fast_path: bool = True,
        columnar: bool = True,
        validate: bool = False,
        observe: bool | None = None,
    ) -> None:
        self.machine = Machine(
            config,
            policy=policy,
            params=params,
            fragmentation=fragmentation,
            thread_quantum=thread_quantum,
            serialization_cycles_per_access=serialization_cycles_per_access,
            fast_path=fast_path,
            columnar=columnar,
            validate=validate,
            observe=observe,
            # Late-bound so post-construction overrides of
            # ``_promotion_tick`` (subclass or monkeypatch) take effect.
            tick_fn=lambda cores, ledgers: self._promotion_tick(cores, ledgers),
        )

    # ------------------------------------------------------------------
    # delegated surface

    @property
    def config(self) -> SystemConfig:
        """The simulated system's configuration."""
        return self.machine.config

    @property
    def policy(self) -> HugePagePolicy:
        """The kernel's huge-page policy."""
        return self.machine.policy

    @property
    def kernel(self):
        """The simulated kernel (processes, page tables, policies)."""
        return self.machine.kernel

    @property
    def dump_region(self):
        """The PCC dump region the OS reads candidates from."""
        return self.machine.dump_region

    @property
    def thread_quantum(self) -> int:
        """Accesses per scheduling quantum."""
        return self.machine.thread_quantum

    @thread_quantum.setter
    def thread_quantum(self, value: int) -> None:
        self.machine.thread_quantum = value

    @property
    def serialization_cycles_per_access(self) -> float:
        """Multithread serialization charge per access (§5.2)."""
        return self.machine.serialization_cycles_per_access

    @serialization_cycles_per_access.setter
    def serialization_cycles_per_access(self, value: float) -> None:
        self.machine.serialization_cycles_per_access = value

    # ------------------------------------------------------------------

    def run(self, workloads: list[ProcessWorkload]) -> SimulationResult:
        """Simulate the workloads to completion and return the result."""
        return self.machine.run(workloads)

    def _promotion_tick(self, cores, ledgers):
        """Fig. 4: dump PCCs, let the kernel promote, apply shootdowns.

        Overridable: the machine routes every OS tick through here.
        """
        return self.machine.promotion_tick(cores, ledgers)

    def _pid_for_core(self, core_id: int) -> int | None:
        """Process whose thread runs on ``core_id`` (static pinning)."""
        return self.machine._pid_for_core(core_id)
