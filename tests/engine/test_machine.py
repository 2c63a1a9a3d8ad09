"""Units for the staged machine pipeline, the one engine object."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import tiny_config
from repro.engine.columnar import ColumnarStream
from repro.engine.cpu import Core
from repro.engine.machine import (
    Machine,
    OsTickDriver,
    ThreadScheduler,
    TranslationPipeline,
)
from repro.engine.simulation import Simulator
from repro.engine.system import ProcessWorkload
from repro.os.kernel import HugePagePolicy
from repro.trace.events import Trace
from repro.validation.oracle import fingerprint
from tests.conftest import make_workload

BASE = 0x5555_5540_0000


def _addresses(pages):
    return np.uint64(BASE) + np.array(pages, dtype=np.uint64) * np.uint64(4096)


def _stream(vpns, counts):
    return ColumnarStream.encode(np.asarray(vpns, dtype=np.uint64),
                                 np.asarray(counts, dtype=np.int64))


class TestThreadScheduler:
    def test_round_robin_retires_exhausted_slots(self):
        scheduler = ThreadScheduler(quantum=4)
        a = scheduler.add(_stream([1, 2], [1, 1]), pid=1, core_id=0,
                          seen=set(), fault=lambda v: None)
        b = scheduler.add(_stream([3], [1]), pid=2, core_id=1,
                          seen=set(), fault=lambda v: None)
        assert scheduler.remaining == 3
        assert list(scheduler.next_round()) == [a, b]
        scheduler.advance(a, 2)
        scheduler.advance(b, 1)
        assert scheduler.remaining == 0
        assert list(scheduler.next_round()) == []
        assert not a.live and not b.live

    def test_advance_tracks_partial_progress(self):
        scheduler = ThreadScheduler(quantum=4)
        slot = scheduler.add(_stream([1, 2, 3], [1, 1, 1]), pid=1,
                             core_id=0, seen=set(), fault=lambda v: None)
        scheduler.advance(slot, 1)
        assert scheduler.remaining == 2
        assert list(scheduler.next_round()) == [slot]


class TestQuantumWindow:
    @pytest.mark.parametrize("quantum", [0, -1])
    def test_a_quantum_below_one_access_is_rejected(self, quantum):
        """An empty window never advances the run, so it is refused."""
        with pytest.raises(ValueError, match="thread_quantum"):
            Machine(tiny_config(), thread_quantum=quantum)


class TestTranslationPipelineHints:
    def test_sync_flushes_batched_counters_exactly_once(self):
        """Fast hits reach the canonical stats via sync, not before."""
        machine = Machine(tiny_config(), policy=HugePagePolicy.NONE)
        # alternate two pages: after each page's first (slow) access,
        # both stay resident in their distinct sets, so the rest hit
        # the live L1 probe
        result = machine.run([make_workload(_addresses([0, 1] * 25))])
        pipeline = machine.pipelines[0]
        assert pipeline.fast_hits > 0
        assert pipeline._pending_accesses == 0  # fully flushed
        core = machine.cores[0]
        assert core.stats.accesses == result.accesses == 50
        assert core.stats.l1_hits == result.l1_hits
        assert core.tlb.accesses == core.tlb.l1_base.stats.accesses

    def test_fast_path_off_never_counts_fast_hits(self):
        machine = Machine(tiny_config(), policy=HugePagePolicy.NONE,
                          tier="scalar")
        machine.run([make_workload(_addresses([0, 1] * 25))])
        assert machine.pipelines[0].fast_hits == 0
        assert machine.pipelines[0].slow_records == 50


class TestColumnarWalkHeavyEpochs:
    """A scan that misses every TLB still retires columnar.

    Eight passes over 512 pages outrun every tiny-config structure, so
    nearly every record walks and the L1 classifier retires almost
    nothing. The residue passes still retire every record exactly, so
    no epoch may decline or hand records to the quantum tiers.
    """

    PAGES = 512
    PASSES = 8

    def _run(self, threads, **options):
        config = tiny_config(cores=threads)
        config = config.with_(
            os=replace(config.os, promote_every_accesses=512)
        )
        scans = [
            _addresses(np.tile(np.arange(first, first + self.PAGES),
                               self.PASSES))
            for first in range(0, threads * self.PAGES, self.PAGES)
        ]
        workload = make_workload(np.concatenate(scans))
        if threads > 1:
            workload = ProcessWorkload.multi_thread(
                [Trace(f"scan{i}", scan, footprint_bytes=4 << 20)
                 for i, scan in enumerate(scans)],
                workload.layout, "scan",
            )
        machine = Machine(config, policy=HugePagePolicy.NONE, **options)
        return machine, machine.run([workload])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_scan_retires_columnar_and_stays_exact(self, threads):
        _, scalar = self._run(threads, tier="scalar")
        machine, columnar = self._run(threads)
        assert fingerprint(columnar) == fingerprint(scalar)
        assert columnar.walks > self.PAGES * self.PASSES * threads // 2
        for pipeline in machine.pipelines:
            assert pipeline.columnar_epochs > 0
            assert pipeline.columnar_fallbacks == 0
            assert pipeline.fast_hits == pipeline.slow_records == 0
        if threads > 1:
            assert all(p.columnar_mt_epochs > 0 for p in machine.pipelines)


class TestOsTickDriver:
    def test_regular_tick_resets_interval_and_samples(self):
        # small quantum so round boundaries (where ticks fire) are hit
        # many times across the 800-access trace
        machine = Machine(
            tiny_config(), policy=HugePagePolicy.PCC, thread_quantum=64
        )
        result = machine.run([make_workload(_addresses(list(range(200)) * 4))])
        # tiny_config ticks every 64 accesses: several regular ticks
        assert len(result.promotion_timeline) >= 2
        assert len(result.huge_page_timeline) == len(result.promotion_timeline)
        # metrics samples align 1:1 with the promotion timeline
        sample_ats = [s["at"] for s in result.metrics["samples"]]
        assert sample_ats == [at for at, _ in result.promotion_timeline]

    def test_final_tick_records_when_nothing_ever_ticked(self):
        driver_config = tiny_config()
        machine = Machine(driver_config, policy=HugePagePolicy.NONE)
        result = machine.run([make_workload(_addresses([1, 2, 3]))])
        # run far below the interval: exactly the final-tick record
        assert len(result.promotion_timeline) == 1

    def test_tick_charges_the_outcome_once(self):
        from repro.core.dump import CandidateRecord
        from repro.engine.timing import CycleAccounting
        from repro.os.promotion import PromotionOutcome

        class Kernel:
            processes = {}

        outcome = PromotionOutcome(
            promoted=[CandidateRecord(pid=1, core=0, tag=7, frequency=3)],
            pages_migrated=2,
        )
        ticks = OsTickDriver(Kernel(), interval=10,
                             promotion_tick=lambda cores, ledgers: outcome)
        config = tiny_config()
        ledgers = [CycleAccounting(config.timing) for _ in range(2)]
        expected = CycleAccounting(config.timing)
        expected.charge_promotions(promotions=1, shootdown_broadcasts=1,
                                   migrated_pages=2, cores=2)
        ticks.tick([], ledgers)
        assert ticks.promotions == 1
        assert ledgers[0].as_metrics("c") == expected.as_metrics("c")
        idle = CycleAccounting(config.timing)
        assert ledgers[1].as_metrics("c") == idle.as_metrics("c")

    def test_due_flag(self):
        ticks = OsTickDriver(kernel=None, interval=10, promotion_tick=None)
        ticks.note(9)
        assert not ticks.due
        ticks.note(1)
        assert ticks.due


class TestRunReleasesItsSlots:
    def test_finished_run_frees_its_traces_by_refcount(self):
        """The machine graph is cyclic, so a slot it still referenced
        would live (with its trace stream) until a collection; under
        PLRU the fast loop's last slot used to stay that way."""
        import gc

        from repro.engine.machine import _ThreadSlot

        config = tiny_config()
        config = config.with_(tlb=config.tlb.with_replacement("plru"))
        gc.collect()
        gc.disable()
        try:
            simulator = Simulator(config, policy=HugePagePolicy.PCC)
            simulator.run([make_workload(_addresses(list(range(300)) * 3))])
            del simulator
            alive = [o for o in gc.get_objects() if isinstance(o, _ThreadSlot)]
        finally:
            gc.enable()
        assert alive == []


class TestPerPidWalkAttribution:
    def test_processes_sharing_a_core_do_not_double_count(self):
        """Two processes pinned to one core: per-process walks must
        partition the total, not each inherit the core's sum."""
        w1 = make_workload(_addresses(range(0, 120)), name="p1")
        w2 = make_workload(_addresses(range(200, 320)), name="p2")
        for w in (w1, w2):
            w.threads[0].core = 0
        result = Simulator(
            tiny_config(), policy=HugePagePolicy.NONE
        ).run([w1, w2])
        per_process = [p.walks for p in result.processes]
        assert sum(per_process) == result.walks
        assert all(w > 0 for w in per_process)

    def test_single_process_gets_all_walks(self):
        result = Simulator(tiny_config(), policy=HugePagePolicy.NONE).run(
            [make_workload(_addresses(range(100)))]
        )
        assert result.processes[0].walks == result.walks


class TestMachineSurface:
    def test_simulator_is_the_machine(self):
        config = tiny_config()
        simulator = Simulator(config, policy=HugePagePolicy.PCC)
        assert Simulator is Machine
        assert simulator.config is config
        assert simulator.policy is HugePagePolicy.PCC
        assert simulator.tier == "columnar"

    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="unknown engine tier 'turbo'"):
            Machine(tiny_config(), tier="turbo")
        with pytest.raises(ValueError, match="unknown engine tier"):
            TranslationPipeline(Core(tiny_config()), tier="")

    def test_promotion_tick_override_is_honored(self):
        """Subclass ticks must flow through the machine's tick driver."""
        calls = []

        class Custom(Simulator):
            def promotion_tick(self, cores, ledgers):
                calls.append(len(cores))
                return super().promotion_tick(cores, ledgers)

        simulator = Custom(tiny_config(), policy=HugePagePolicy.PCC)
        simulator.run([make_workload(_addresses(list(range(100)) * 3))])
        assert calls  # at least the final tick
        assert all(n == 1 for n in calls)

    def test_pinning_beyond_core_count_raises(self):
        workload = make_workload(_addresses([1, 2, 3]))
        workload.threads[0].core = 5
        with pytest.raises(ValueError, match="pinned to core 5"):
            Simulator(tiny_config(), policy=HugePagePolicy.NONE).run([workload])

    def test_result_carries_metrics_export(self):
        result = Simulator(tiny_config(), policy=HugePagePolicy.NONE).run(
            [make_workload(_addresses([1, 2, 3]))]
        )
        assert result.metrics["schema"] == "repro.metrics/v1"
        assert result.metrics["meta"]["policy"] == "none"
        # three records never fill an epoch: the fast loop ran them
        assert result.metrics["meta"]["tier"] == "fast"
