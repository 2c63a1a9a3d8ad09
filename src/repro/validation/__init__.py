"""Correctness tooling: differential oracles, fuzzing, invariants.

The reproduction's central claim is quantitative, so it is only as
trustworthy as the equivalence of its engine tiers (scalar / fast /
columnar) and the semantic invariants of its OS policy models. This
package provides the machinery that proves both, continuously:

- :mod:`repro.validation.generators` — seeded random simulator
  configurations and synthetic address streams with tunable locality,
  fragmentation, and sharing knobs;
- :mod:`repro.validation.oracle` — the differential harness running one
  ``(config, stream)`` pair through every engine tier and through the
  OS policies, asserting bit-identical statistics where required and
  declared metamorphic relations where exact equality is not defined;
- :mod:`repro.validation.invariants` — cheap runtime invariant checkers
  installed through the engine's ``validate=True`` hook (TLB
  set-occupancy bounds, fast-path hint legality, PCC counter
  saturation laws, page-table region-count consistency);
- :mod:`repro.validation.shrink` — a delta-debugging reducer that turns
  any failing case into a minimal reproducer written to
  ``tests/corpus/`` so every past failure becomes a permanent
  regression test;
- :mod:`repro.validation.defects` — deliberately broken engine/OS
  variants used to prove the harness actually catches bugs.

Entry point: ``repro validate [--fuzz N | --replay DIR]``.
"""

from repro.validation.generators import FuzzCase, generate_case
from repro.validation.invariants import InvariantMonitor, InvariantViolation
from repro.validation.oracle import CaseReport, ValidationFailure, check_case
from repro.validation.shrink import shrink_case, write_reproducer

__all__ = [
    "FuzzCase",
    "generate_case",
    "InvariantMonitor",
    "InvariantViolation",
    "CaseReport",
    "ValidationFailure",
    "check_case",
    "shrink_case",
    "write_reproducer",
]
