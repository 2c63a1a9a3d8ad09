"""Simulation engine: per-core pipeline, timing, online/offline loops."""

from repro.engine.cpu import Core
from repro.engine.machine import (
    ENGINE_TIERS,
    Machine,
    OsTickDriver,
    ThreadScheduler,
    TranslationPipeline,
)
from repro.engine.timing import CycleAccounting
from repro.engine.simulation import SimulationResult, Simulator
from repro.engine.system import ProcessWorkload, ThreadWorkload

__all__ = [
    "ENGINE_TIERS",
    "Core",
    "CycleAccounting",
    "Machine",
    "OsTickDriver",
    "Simulator",
    "SimulationResult",
    "ThreadScheduler",
    "TranslationPipeline",
    "ProcessWorkload",
    "ThreadWorkload",
]
