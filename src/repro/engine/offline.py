"""The paper's two-step evaluation methodology (§4).

Step one runs the TLB+PCC simulation *offline* with no promotions
applied, recording which candidates the PCC would hand the OS at each
promotion interval (a :class:`PromotionSchedule`, the paper's trace
file of candidate addresses and promotion times). Step two replays the
workload while a background "promotion thread" applies the scheduled
promotions at the recorded points — emulating real hardware feeding a
real kernel.

On deterministic traces the online engine and this two-step pipeline
promote similar region sets; tests assert the agreement on small
workloads, validating that the online loop faithfully represents the
paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.core.dump import CandidateRecord
from repro.engine.cpu import Core
from repro.engine.simulation import SimulationResult, Simulator
from repro.engine.system import ProcessWorkload
from repro.os.kernel import HugePagePolicy, KernelParams, SimulatedKernel
from repro.vm.address import BASE_PAGE_SHIFT


@dataclass
class ScheduledPromotion:
    """One candidate with the access-time at which the OS receives it."""

    at_access: int
    record: CandidateRecord


@dataclass
class PromotionSchedule:
    """Ordered promotion-candidate trace produced by the offline step."""

    entries: list[ScheduledPromotion] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def regions(self) -> list[int]:
        """Distinct candidate region prefixes, in first-seen order."""
        seen: set[int] = set()
        ordered: list[int] = []
        for entry in self.entries:
            if entry.record.tag not in seen:
                seen.add(entry.record.tag)
                ordered.append(entry.record.tag)
        return ordered


def record_candidates(
    workload: ProcessWorkload, config: SystemConfig
) -> PromotionSchedule:
    """Step one: offline TLB+PCC simulation, promotions only recorded.

    The PCC is flushed at every interval exactly as the online loop
    does, but page tables never change — candidates are written to the
    schedule "as if they have been promoted" (the paper removes them
    from the PCC at this point, which the flush accomplishes).
    """
    kernel = SimulatedKernel(config, policy=HugePagePolicy.NONE)
    process = kernel.spawn(workload.layout, pid=1)
    core = Core(config)
    schedule = PromotionSchedule()
    interval = config.os.promote_every_accesses
    done = 0
    since_tick = 0
    for thread in workload.threads:
        vpns = thread.trace.vpns
        counts = thread.trace.counts
        for i in range(len(vpns)):
            vpn = int(vpns[i])
            repeat = int(counts[i])
            vaddr = vpn << BASE_PAGE_SHIFT
            if not process.page_table.is_mapped(vaddr):
                kernel.handle_fault(1, vaddr)
            core.access_page(vpn, process.page_table, repeat=repeat)
            done += repeat
            since_tick += repeat
            if since_tick >= interval:
                since_tick = 0
                _drain_pcc(core, schedule, done)
    _drain_pcc(core, schedule, done)
    return schedule


def _drain_pcc(core: Core, schedule: PromotionSchedule, at_access: int) -> None:
    for entry in core.pcc.flush():
        schedule.entries.append(
            ScheduledPromotion(
                at_access=at_access,
                record=CandidateRecord(
                    pid=1, core=0, tag=entry.tag, frequency=entry.frequency
                ),
            )
        )


def replay_with_schedule(
    workload: ProcessWorkload,
    schedule: PromotionSchedule,
    config: SystemConfig,
    fragmentation: float = 0.0,
    budget_regions: int | None = None,
) -> SimulationResult:
    """Step two: re-run the workload applying scheduled promotions.

    The replay uses the PCC-policy kernel but feeds it the *recorded*
    candidates at each interval instead of live PCC dumps — the
    simulation equivalent of the paper's userspace promotion thread
    reading the candidate address trace.
    """
    params = KernelParams(
        regions_to_promote=config.os.regions_to_promote,
        promotion_budget_regions=budget_regions,
    )
    simulator = _ScheduledSimulator(
        config,
        schedule=schedule,
        params=params,
        fragmentation=fragmentation,
    )
    return simulator.run([workload])


class _ScheduledSimulator(Simulator):
    """Machine whose promotion ticks consume a recorded schedule."""

    def __init__(self, config, schedule: PromotionSchedule, **kwargs) -> None:
        super().__init__(config, policy=HugePagePolicy.PCC, **kwargs)
        self._schedule = sorted(schedule.entries, key=lambda e: e.at_access)
        self._next_entry = 0

    def tick_candidates(self, cores) -> list[CandidateRecord]:
        # Candidates become visible once their recorded time has passed.
        accesses_seen = sum(core.stats.accesses for core in cores)
        records: list[CandidateRecord] = []
        while (
            self._next_entry < len(self._schedule)
            and self._schedule[self._next_entry].at_access <= accesses_seen
        ):
            records.append(self._schedule[self._next_entry].record)
            self._next_entry += 1
        # Hardware PCCs still get flushed (their dumps are discarded, the
        # schedule stands in for them) so state matches the online loop.
        for core in cores:
            core.pcc.flush()
        return records
