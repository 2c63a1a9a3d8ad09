"""The shrinker: reduction power, soundness, budget, persistence."""

import json

import pytest

from repro.validation.generators import FuzzCase, generate_case
from repro.validation.oracle import ValidationFailure
from repro.validation.shrink import (
    CORPUS_SCHEMA,
    iter_corpus,
    load_reproducer,
    same_failure,
    shrink_case,
    write_reproducer,
)


def contains_page(page):
    """Predicate family: the case still touches ``page`` somewhere."""
    return lambda case: any(page in thread for thread in case.threads)


def test_shrinks_to_the_single_relevant_access():
    case = generate_case(7)
    case.threads = [[1, 2, 3, 42, 5, 6] * 20, [9, 9, 9] * 30]
    small = shrink_case(case, contains_page(42), budget=2000)
    assert small.total_accesses == 1
    assert small.threads == [[42]]


def test_drops_irrelevant_threads_first():
    case = generate_case(8)
    case.threads = [[5] * 50, [7] * 50, [5, 7] * 25]
    small = shrink_case(
        case, lambda c: all(contains_page(p)(c) for p in (5, 7)), budget=2000
    )
    assert len(small.threads) <= 2
    assert contains_page(5)(small) and contains_page(7)(small)


def test_simplifies_knobs_toward_boring_values():
    case = generate_case(9)
    case.demotion = True
    case.fragmentation = 0.9
    case.static_regions = [0]
    case.threads = [[3] * 40]
    small = shrink_case(case, contains_page(3), budget=2000)
    assert small.demotion is False
    assert small.fragmentation == 0.0
    assert small.static_regions == []
    assert small.label.startswith("shrunk from seed")


def test_never_mutates_the_input_case():
    case = generate_case(10)
    before = case.to_dict()
    shrink_case(case, contains_page(case.threads[0][0]), budget=200)
    assert case.to_dict() == before


def test_unreproducible_failure_returns_the_case_unshrunken():
    case = generate_case(11)
    small = shrink_case(case, lambda c: False, budget=200)
    assert small.to_dict() == case.to_dict()


def test_budget_bounds_predicate_calls():
    calls = []

    def predicate(candidate):
        calls.append(1)
        return True

    case = generate_case(12)
    shrink_case(case, predicate, budget=25)
    assert len(calls) <= 25


def test_crashing_predicate_counts_as_not_failing():
    case = generate_case(13)

    def fragile(candidate):
        if candidate.total_accesses < case.total_accesses:
            raise RuntimeError("different bug")
        return True

    small = shrink_case(case, fragile, budget=300)
    # nothing smaller survived the predicate, so nothing shrank
    assert small.total_accesses == case.total_accesses


def test_same_failure_matches_domain_prefix_only():
    def failing_with(domain):
        def check(case):
            raise ValidationFailure(domain, "detail", case)

        return check

    predicate = same_failure(failing_with("tier.fast"), "tier.fast")
    assert predicate(generate_case(0))
    predicate = same_failure(failing_with("tier.fast.metrics"), "tier.fast")
    assert predicate(generate_case(0))
    predicate = same_failure(failing_with("ledger.huge_pages"), "tier.fast")
    assert not predicate(generate_case(0))

    def passing(case):
        return None

    assert not same_failure(passing, "tier.fast")(generate_case(0))

    def asserting(case):
        raise AssertionError("plain assert, not a ValidationFailure")

    assert not same_failure(asserting, "tier.fast")(generate_case(0))


def test_write_and_load_round_trip(tmp_path):
    case = generate_case(14)
    failure = ValidationFailure("tier.columnar", "columnar diverged", case)
    path = write_reproducer(case, failure, tmp_path)
    assert path.parent == tmp_path
    assert path.name == f"case-{case.case_id}.json"

    record = json.loads(path.read_text())
    assert record["schema"] == CORPUS_SCHEMA
    assert record["failure"] == {
        "domain": "tier.columnar",
        "detail": "columnar diverged",
    }

    again, past = load_reproducer(path)
    assert again.to_dict() == case.to_dict()
    assert past["domain"] == "tier.columnar"


def test_load_rejects_unknown_schema(tmp_path):
    bogus = tmp_path / "case-bogus.json"
    bogus.write_text(json.dumps({"schema": "something-else", "case": {}}))
    with pytest.raises(ValueError, match="unknown corpus schema"):
        load_reproducer(bogus)


def test_iter_corpus_is_sorted_and_tolerates_missing_dirs(tmp_path):
    assert list(iter_corpus(tmp_path / "nope")) == []
    for seed in (21, 22, 23):
        write_reproducer(generate_case(seed), None, tmp_path)
    paths = list(iter_corpus(tmp_path))
    assert len(paths) == 3
    assert paths == sorted(paths)
    assert all(p.name.startswith("case-") for p in paths)


def test_shrunk_cases_stay_serializable():
    case = generate_case(15)
    small = shrink_case(case, contains_page(case.threads[0][0]), budget=400)
    wire = json.dumps(small.to_dict())
    assert FuzzCase.from_dict(json.loads(wire)).case_id == small.case_id
