"""Host-speed probe: fixed work that runs none of the ``repro`` code.

The benchmark host's speed drifts by tens of percent over minutes (other
tenants share its physical cores), and the drift slows module imports,
pure-Python loops and NumPy alike. Timing this probe next to the
workload measures the host's speed at that moment. The work mirrors the
simulator's mix (imports, a dict-and-method-call LRU loop like the
quantum path, NumPy sorting like the columnar tier) but uses only the
standard library and NumPy, so no change to the simulator can change
its time.

The harness runs ``python -m bench.probe`` between reps, in its own
process so it cannot change the memory or caches of the process being
measured. The probe prints ``time.monotonic()`` at its end, and the
parent times it from spawn. The serving workload runs one copy per CPU
its load keeps busy.
"""

from __future__ import annotations

import time


class _LRUSet:
    """A 4-way LRU set: the shape of the simulator's per-record loop."""

    def __init__(self) -> None:
        self.entries: dict[int, int] = {}

    def touch(self, tag: int) -> bool:
        entries = self.entries
        if tag in entries:
            del entries[tag]
            entries[tag] = 1
            return True
        if len(entries) >= 4:
            del entries[next(iter(entries))]
        entries[tag] = 1
        return False


def work() -> int:
    """About 0.5 s of interpreter-bound loops and NumPy."""
    import numpy as np

    sets = [_LRUSet() for _ in range(64)]
    hits = 0
    state = 12345
    for _ in range(400_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        tag = state >> 20
        hits += sets[tag & 63].touch(tag)
    keys = np.random.default_rng(12345).integers(0, 1 << 16, 200_000)
    for _ in range(6):
        uniq, inverse = np.unique(keys, return_inverse=True)
        np.searchsorted(uniq, keys)
    return hits + int(inverse[-1])


if __name__ == "__main__":
    # interpreter start and imports are part of the probe, as they are
    # of every rep and daemon start
    import argparse  # noqa: F401
    import asyncio  # noqa: F401
    import decimal  # noqa: F401
    import email.parser  # noqa: F401
    import http.client  # noqa: F401
    import json  # noqa: F401
    import logging  # noqa: F401
    import xml.etree.ElementTree  # noqa: F401

    work()
    # the parent subtracts its spawn time: waiting on the process from
    # outside would add the 50 ms polling step of ``subprocess``'s timeout
    print(time.monotonic())
