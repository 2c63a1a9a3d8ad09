#!/usr/bin/env python3
"""1GB page support: the §3.2.3 extension.

Builds a synthetic workload whose hot set sprays across several
1GB-aligned arenas — so wide that even 2MB TLB entries thrash — and
runs it with the 1GB companion PCC enabled. The OS compares 2MB- and
1GB-granular walk frequencies and collectively promotes whole 1GB
regions when the 512x rule of §3.2.3 favors them.

Run:  python examples/giga_pages.py
"""

import copy

from repro import HugePagePolicy, Simulator
from repro.analysis import report
from repro.config import PCCConfig, scaled_config
from repro.experiments.ablations import giant_span_workload
from repro.vm.address import PageSize


def main() -> None:
    workload = giant_span_workload(giga_regions=2, accesses=150_000)
    print(
        f"Giant-span workload: {report.bytes_human(workload.footprint_bytes)} "
        f"virtual footprint across 2 x 1GB arenas, "
        f"{workload.total_accesses:,} accesses"
    )

    config = scaled_config(memory_bytes=4 << 30).with_(
        pcc=PCCConfig(entries=32, giga_entries=8, giga_enabled=True)
    )

    results = {}
    for label, policy in (
        ("4KB baseline", HugePagePolicy.NONE),
        ("PCC (2MB + 1GB)", HugePagePolicy.PCC),
    ):
        simulator = Simulator(config, policy=policy)
        results[label] = (simulator, simulator.run([copy.deepcopy(workload)]))
        print(f"  simulated: {label}")

    base = results["4KB baseline"][1]
    simulator, pcc = results["PCC (2MB + 1GB)"]
    table = simulator.kernel.processes[1].page_table
    giga_promoted = len(table.promoted_regions(PageSize.GIGA))
    engine_stats = simulator.kernel._engine.stats

    print()
    print(
        report.format_table(
            ["Configuration", "TLB miss %", "Speedup"],
            [
                ["4KB baseline", report.percent(base.walk_rate), "1.00x"],
                [
                    "PCC (2MB + 1GB)",
                    report.percent(pcc.walk_rate),
                    report.speedup(base.total_cycles / pcc.total_cycles),
                ],
            ],
            title="1GB PCC extension on a multi-GB-span hot set",
        )
    )
    print(
        f"\n2MB promotions: {engine_stats.promotions}; "
        f"1GB collective promotions: {engine_stats.giga_promotions} "
        f"({giga_promoted} giga regions live)"
    )


if __name__ == "__main__":
    main()
