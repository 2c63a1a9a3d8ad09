"""The differential oracle: tiers must agree, policies must obey laws.

One :class:`~repro.validation.generators.FuzzCase` is judged in three
moves:

1. **Tier equivalence** (exact). The same (config, stream) runs through
   every tier of :data:`~repro.engine.machine.ENGINE_TIERS`:
   the scalar reference (``tier="scalar"``), the per-record fast path,
   and the columnar epoch tier, each once unobserved and once observed
   (``REPRO_OBS`` set). Every observable — walks, per-structure hits,
   cycles, promotions, timelines, per-process stats, and all
   non-fastpath metrics counters (walker and PCC statistics included) —
   must be bit-identical to the unobserved scalar reference, and the
   observed runs' ``distributions`` must agree across tiers (all but
   the wall-clock ``tick_duration_us``). Runtime invariants
   (:mod:`repro.validation.invariants`) are armed on every run.

2. **Metamorphic policy relations** (exact where defined). Relations
   that hold by construction, not by luck:

   - ``NONE`` never promotes, never demotes, never maps a huge page;
   - ``ORACLE`` with an empty static-region set is indistinguishable
     from ``NONE`` (same translations, zero promotions);
   - ``PCC`` with ``promotion_budget_regions=0`` performs the same
     translations as ``NONE`` and promotes nothing;
   - the huge-page ledger balances: 2MB and 1GB leaves still standing
     at the end, plus the 2MB leaves 1GB promotions absorbed, equal
     promotions minus demotions;
   - conservation: accesses partition into L1 hits + L2 hits + walks,
     and the promotion timeline sums to the promotion total.

3. **Determinism**: repeating the scalar run reproduces the fingerprint
   bit-for-bit — any divergence means hidden global state.

Cross-policy *performance* orderings (e.g. "IDEAL walks at most as much
as PCC") are deliberately **not** asserted: with set-associative TLBs a
promotion can create conflict misses the base-page layout avoided, so
the ordering is a strong tendency, not a law. Violations are recorded
as advisory notes on the :class:`CaseReport` instead.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field, replace

from repro.engine.machine import ENGINE_TIERS
from repro.engine.simulation import SimulationResult, Simulator
from repro.obs.observer import OBS_ENV
from repro.os.kernel import HugePagePolicy
from repro.validation.generators import FuzzCase
from repro.validation.invariants import InvariantViolation
from repro.vm.address import PageSize

class ValidationFailure(AssertionError):
    """A case broke a hard relation; carries a machine-readable domain."""

    def __init__(self, domain: str, detail: str, case: FuzzCase | None = None):
        self.domain = domain
        self.detail = detail
        self.case = case
        super().__init__(f"[{domain}] {detail}")


@dataclass
class CaseReport:
    """What one passing case proved (and what it merely observed)."""

    case_id: str
    policy: str
    accesses: int
    #: hard relations that were checked and held
    checks: list[str] = field(default_factory=list)
    #: advisory observations (soft tendencies that did not hold, etc.)
    notes: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# running


def run_case(
    case: FuzzCase,
    tier: str = "scalar",
    policy: HugePagePolicy | None = None,
    params=None,
    validate: bool = True,
) -> tuple[Simulator, SimulationResult]:
    """Run one case through one tier; returns the simulator too so
    callers can inspect end-of-run kernel state (the huge-page ledger).

    Raises :class:`~repro.validation.invariants.InvariantViolation` if a
    runtime invariant breaks mid-run.
    """
    config = case.build_config().with_(cores=case.cores)
    simulator = Simulator(
        config,
        policy=policy if policy is not None else case.huge_policy(),
        params=params if params is not None else case.build_params(),
        fragmentation=case.fragmentation,
        thread_quantum=case.thread_quantum,
        tier=tier,
        validate=validate,
    )
    result = simulator.run([case.build_workload()])
    return simulator, result


def fingerprint(result: SimulationResult) -> dict:
    """Every observable statistic of a run, for exact comparison."""
    return {
        "policy": result.policy,
        "total_cycles": result.total_cycles,
        "accesses": result.accesses,
        "walks": result.walks,
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
        "promotions": result.promotions,
        "demotions": result.demotions,
        "promotion_timeline": result.promotion_timeline,
        "huge_page_timeline": result.huge_page_timeline,
        "per_core": result.per_core,
        "processes": [
            (p.pid, p.name, p.accesses, p.walks, p.huge_pages,
             p.footprint_regions)
            for p in result.processes
        ],
    }


def translation_fingerprint(result: SimulationResult) -> dict:
    """The translation-visible subset, ignoring the policy label.

    Used for cross-policy identities (ORACLE(∅) ≡ NONE) where the
    policy name and policy-bookkeeping metrics legitimately differ but
    every translation outcome must match.
    """
    fp = fingerprint(result)
    del fp["policy"]
    return fp


def _counters(result: SimulationResult) -> dict:
    """Metrics counters minus the fast path's own instrumentation."""
    return {
        name: value
        for name, value in (result.metrics or {}).get("counters", {}).items()
        if ".fastpath." not in name
    }


def _distributions(result: SimulationResult) -> dict:
    """An observed run's histograms, minus the wall-clock one."""
    distributions = dict((result.metrics or {}).get("distributions", {}))
    distributions.pop("tick_duration_us", None)
    return distributions


@contextlib.contextmanager
def _observation(observed: bool):
    """Set ``REPRO_OBS`` for the block (observed) or clear it."""
    saved = os.environ.pop(OBS_ENV, None)
    if observed:
        os.environ[OBS_ENV] = "1"
    try:
        yield
    finally:
        os.environ.pop(OBS_ENV, None)
        if saved is not None:
            os.environ[OBS_ENV] = saved


def _first_diff(a: dict, b: dict) -> str:
    """Human-readable first difference between two fingerprints."""
    for key in a:
        if key not in b:
            return f"field {key!r} missing from comparison run"
        if a[key] != b[key]:
            return f"field {key!r}: {a[key]!r} != {b[key]!r}"
    extra = set(b) - set(a)
    if extra:
        return f"unexpected fields {sorted(extra)}"
    return "no difference (comparison bug)"


# ----------------------------------------------------------------------
# checks


def check_tiers(
    case: FuzzCase, report: CaseReport
) -> tuple[Simulator, SimulationResult]:
    """Every engine tier, observed or not, must be bit-identical on this
    case, and observed tiers must report the same histograms.

    A tier that raises where the scalar reference ran clean diverges
    too (an invariant it breaks keeps its own domain).
    """
    with _observation(False):
        simulator, reference = run_case(case, tier="scalar")
    ref_fp = fingerprint(reference)
    ref_counters = _counters(reference)
    ref_distributions = None
    for observed in (False, True):
        for tier in ENGINE_TIERS:
            if tier == "scalar" and not observed:
                continue
            label = f"{tier}.observed" if observed else tier
            try:
                with _observation(observed):
                    _, candidate = run_case(case, tier=tier)
            except InvariantViolation:
                raise
            except Exception as error:
                raise ValidationFailure(
                    f"tier.{label}.raised",
                    f"{label} tier raised where the scalar reference "
                    f"ran: {error!r}",
                    case,
                ) from error
            fp = fingerprint(candidate)
            if fp != ref_fp:
                raise ValidationFailure(
                    f"tier.{label}",
                    f"{label} tier diverges from scalar reference: "
                    f"{_first_diff(ref_fp, fp)}",
                    case,
                )
            counters = _counters(candidate)
            if counters != ref_counters:
                raise ValidationFailure(
                    f"tier.{label}.metrics",
                    f"{label} tier metrics diverge: "
                    f"{_first_diff(ref_counters, counters)}",
                    case,
                )
            if observed:
                distributions = _distributions(candidate)
                if ref_distributions is None:
                    ref_distributions = distributions
                elif distributions != ref_distributions:
                    raise ValidationFailure(
                        f"tier.{label}.distributions",
                        f"{label} tier histograms diverge from the "
                        "observed scalar run: "
                        f"{_first_diff(ref_distributions, distributions)}",
                        case,
                    )
            report.checks.append(f"tier:{label}")
    return simulator, reference


def check_determinism(case: FuzzCase, reference: SimulationResult,
                      report: CaseReport) -> None:
    """Re-running the reference must reproduce it bit-for-bit."""
    _, again = run_case(case, tier="scalar")
    if fingerprint(again) != fingerprint(reference):
        raise ValidationFailure(
            "determinism",
            "two scalar runs of the same case disagree: "
            f"{_first_diff(fingerprint(reference), fingerprint(again))}",
            case,
        )
    report.checks.append("determinism")


def check_conservation(case: FuzzCase, result: SimulationResult,
                       report: CaseReport) -> None:
    """Counting laws every run must satisfy, whatever the policy."""
    if result.accesses != result.l1_hits + result.l2_hits + result.walks:
        raise ValidationFailure(
            "conservation.accesses",
            f"accesses {result.accesses} != l1 {result.l1_hits} + "
            f"l2 {result.l2_hits} + walks {result.walks}",
            case,
        )
    timeline = sum(n for _, n in result.promotion_timeline)
    if timeline != result.promotions:
        raise ValidationFailure(
            "conservation.timeline",
            f"promotion timeline sums to {timeline}, "
            f"result counted {result.promotions}",
            case,
        )
    if result.accesses != sum(len(t) for t in case.threads):
        raise ValidationFailure(
            "conservation.stream",
            f"run consumed {result.accesses} accesses, "
            f"case supplies {case.total_accesses}",
            case,
        )
    report.checks.append("conservation")


def check_ledger(case: FuzzCase, simulator: Simulator,
                 result: SimulationResult, report: CaseReport) -> None:
    """Standing huge leaves must balance the promotion ledger.

    Every promotion, 2MB or 1GB, creates one leaf; a demotion removes a
    2MB leaf, and a 1GB promotion absorbs the 2MB leaves inside it.
    Tick-driven policies (NONE, PCC, HAWKEYE) create huge mappings only
    through counted promotions, so ``standing + absorbed == promotions
    - demotions`` exactly. Greedy/static policies (LINUX_THP, IDEAL,
    ORACLE) also map huge pages at fault time without counting a
    promotion, so only the inequality ``standing + absorbed >=
    promotions - demotions`` is a law for them.
    """
    standing = 0
    for process in simulator.kernel.processes.values():
        table = process.page_table
        standing += (len(table.promoted_regions())
                     + len(table.promoted_regions(PageSize.GIGA))
                     + table.stats.absorbed)
    balance = result.promotions - result.demotions
    exact = case.huge_policy() in (
        HugePagePolicy.NONE,
        HugePagePolicy.PCC,
        HugePagePolicy.HAWKEYE,
    )
    if (standing != balance) if exact else (standing < balance):
        raise ValidationFailure(
            "ledger.huge_pages",
            f"{standing} huge leaves standing or absorbed, but ledger says "
            f"{result.promotions} promotions - {result.demotions} "
            f"demotions = {balance} "
            f"({'exact' if exact else 'lower-bound'} law for "
            f"{case.policy})",
            case,
        )
    report.checks.append("ledger")


def check_policy_relations(case: FuzzCase, reference: SimulationResult,
                           report: CaseReport) -> None:
    """Policy-specific metamorphic relations."""
    policy = case.huge_policy()

    if policy is HugePagePolicy.NONE:
        if reference.promotions or reference.demotions:
            raise ValidationFailure(
                "policy.none",
                f"NONE promoted {reference.promotions} / demoted "
                f"{reference.demotions} regions",
                case,
            )
        if any(p.huge_pages for p in reference.processes):
            raise ValidationFailure(
                "policy.none",
                "NONE left huge pages mapped",
                case,
            )
        report.checks.append("policy:none-inert")
        return

    # The NONE run is the translation baseline both identities compare
    # against: same streams, no promotion ever.
    _, none_run = run_case(case, policy=HugePagePolicy.NONE)

    if policy is HugePagePolicy.ORACLE:
        empty = replace(case.build_params(), static_huge_regions=())
        _, oracle_run = run_case(
            case, policy=HugePagePolicy.ORACLE, params=empty
        )
        if translation_fingerprint(oracle_run) != translation_fingerprint(
            none_run
        ):
            raise ValidationFailure(
                "policy.oracle_empty",
                "ORACLE with no static regions differs from NONE: "
                + _first_diff(
                    translation_fingerprint(none_run),
                    translation_fingerprint(oracle_run),
                ),
                case,
            )
        report.checks.append("policy:oracle-empty≡none")

    if policy is HugePagePolicy.PCC:
        zero_budget = replace(
            case.build_params(), promotion_budget_regions=0
        )
        _, pcc_run = run_case(
            case, policy=HugePagePolicy.PCC, params=zero_budget
        )
        if pcc_run.promotions:
            raise ValidationFailure(
                "policy.pcc_budget",
                f"PCC promoted {pcc_run.promotions} regions under a "
                "zero promotion budget",
                case,
            )
        ours = translation_fingerprint(pcc_run)
        theirs = translation_fingerprint(none_run)
        # PCC runs spend cycles on dumps/ticks even when nothing is
        # promoted; the *translation* outcomes must still match.
        for fp in (ours, theirs):
            fp.pop("total_cycles", None)
            fp.pop("per_core", None)
        if ours != theirs:
            raise ValidationFailure(
                "policy.pcc_budget",
                "budget-0 PCC translates differently from NONE: "
                + _first_diff(theirs, ours),
                case,
            )
        report.checks.append("policy:pcc-budget0≡none")

    # Advisory only: promotion should not usually *hurt* walk counts,
    # but set-conflict dynamics can make it so; record, don't fail.
    if reference.walks > none_run.walks:
        report.notes.append(
            f"{case.policy} walked {reference.walks} > NONE's "
            f"{none_run.walks} (legal: promotion-induced set conflicts)"
        )


# ----------------------------------------------------------------------
# entry point


def check_case(case: FuzzCase) -> CaseReport:
    """Run every hard relation on one case.

    Returns the report on success; raises :class:`ValidationFailure`
    (or an :class:`InvariantViolation` wrapped into one) on the first
    relation that breaks.
    """
    report = CaseReport(
        case_id=case.case_id,
        policy=case.policy,
        accesses=case.total_accesses,
    )
    try:
        simulator, reference = check_tiers(case, report)
        check_determinism(case, reference, report)
        check_conservation(case, reference, report)
        check_ledger(case, simulator, reference, report)
        check_policy_relations(case, reference, report)
    except InvariantViolation as violation:
        raise ValidationFailure(
            f"invariant.{violation.domain}", violation.detail, case
        ) from violation
    report.checks.append("invariants")
    return report
