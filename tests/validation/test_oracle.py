"""The differential oracle: healthy engines pass, broken ones fail."""

import pytest

from repro.os.kernel import HugePagePolicy
from repro.validation import defects
from repro.validation.generators import generate_case
from repro.validation.oracle import (
    ValidationFailure,
    check_case,
    fingerprint,
    run_case,
    translation_fingerprint,
)


def test_healthy_cases_pass_all_checks():
    for seed in range(10):
        report = check_case(generate_case(seed))
        assert "tier:fast" in report.checks
        assert "tier:columnar" in report.checks
        assert "determinism" in report.checks
        assert "conservation" in report.checks
        assert "ledger" in report.checks
        assert "invariants" in report.checks


def test_policy_specific_relations_run_for_their_policies():
    seen = set()
    for seed in range(60):
        case = generate_case(seed)
        report = check_case(case)
        seen.update(
            check for check in report.checks if check.startswith("policy:")
        )
        if seen >= {
            "policy:none-inert",
            "policy:oracle-empty≡none",
            "policy:pcc-budget0≡none",
        }:
            break
    assert "policy:none-inert" in seen
    assert "policy:oracle-empty≡none" in seen
    assert "policy:pcc-budget0≡none" in seen


def test_lost_fast_hits_fail_the_oracle_with_a_case_attached():
    case = generate_case(5)
    with defects.inject("lost-fast-hits"):
        with pytest.raises(ValidationFailure) as exc:
            check_case(case)
    failure = exc.value
    # every partition law still balances, so only the fast tier's
    # divergence from the scalar reference can catch it
    assert failure.domain.startswith("tier.fast")
    assert failure.case is case


def test_a_tier_that_raises_fails_the_oracle(monkeypatch):
    """An engine tier crashing where the scalar reference ran is a
    divergence with a case attached, not an error out of the harness."""
    from repro.engine.machine import TranslationPipeline

    def broken(cls, *args):
        raise KeyError("stale entry")

    monkeypatch.setattr(TranslationPipeline, "run_epoch",
                        classmethod(broken))
    case = generate_case(0)
    with pytest.raises(ValidationFailure) as exc:
        check_case(case)
    assert exc.value.domain == "tier.columnar.raised"
    assert "KeyError" in str(exc.value)
    assert exc.value.case is case


def test_fingerprint_covers_translation_outcomes():
    case = generate_case(4)
    _, result = run_case(case)
    fp = fingerprint(result)
    for key in ("walks", "l1_hits", "l2_hits", "promotions",
                "total_cycles", "processes"):
        assert key in fp
    translation = translation_fingerprint(result)
    assert "policy" not in translation
    assert translation["walks"] == fp["walks"]


def test_oracle_with_no_static_regions_matches_none():
    """The metamorphic identity itself, asserted directly once."""
    case = generate_case(5)
    case.static_regions = []
    case.policy = "ORACLE"
    _, oracle_run = run_case(case)
    _, none_run = run_case(case, policy=HugePagePolicy.NONE)
    assert translation_fingerprint(oracle_run) == translation_fingerprint(
        none_run
    )


def test_report_counts_case_accesses():
    case = generate_case(6)
    report = check_case(case)
    assert report.case_id == case.case_id
    assert report.accesses == case.total_accesses
    assert report.policy == case.policy


@pytest.mark.parametrize("seed", [24, 38, 161])
def test_generated_1gb_promotions_balance_the_ledger(seed):
    """These seeds draw the 1GB PCC and promote a 1GB page that absorbs
    standing 2MB pages; every tier agrees and the ledger still balances
    once absorbed leaves count."""
    case = generate_case(seed)
    assert case.giga
    report = check_case(case)
    assert {"tier:columnar", "ledger"} <= set(report.checks)
    simulator, result = run_case(case, tier="columnar")
    tables = [p.page_table for p in simulator.kernel.processes.values()]
    assert result.metrics["counters"]["kernel.promotion.giga_promotions"] > 0
    assert sum(table.stats.absorbed for table in tables) > 0
