"""Shrink failing fuzz cases into minimal corpus reproducers.

When the oracle rejects a case, the raw input is usually thousands of
accesses across several threads with a dozen active knobs — too big to
debug and too noisy to keep. :func:`shrink_case` reduces it while the
failure reproduces, in three structural stages:

1. **drop threads** — remove whole threads while the failure survives;
2. **ddmin over accesses** — per thread, delete contiguous chunks at
   halving granularity (classic delta debugging) until 1-access
   resolution;
3. **simplify knobs** — reset each configuration knob toward its most
   boring value (no demotion, no 1GB PCC, the default quantum, LFU,
   flush mode, zero fragmentation, no static regions) and shrink the window, keeping each change only if
   the case still fails.

The predicate is arbitrary (typically "``check_case`` raises a failure
in the same domain", via :func:`same_failure`), and the whole search
runs under a predicate-call budget so a slow failure can't stall the
fuzzer. Minimal cases are persisted as JSON by :func:`write_reproducer`
into ``tests/corpus/``, where the replay suite promotes every past
failure into a permanent regression test.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterator

from repro.validation.generators import PAGES_PER_REGION, FuzzCase

#: JSON schema tag stamped into every corpus file.
CORPUS_SCHEMA = "repro.validation/corpus-v1"

#: Repository-canonical corpus location (relative to the repo root).
DEFAULT_CORPUS_DIR = Path("tests") / "corpus"


class _Budget:
    """Counts predicate calls; the search stops when exhausted."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def spend(self) -> bool:
        """Consume one call if available."""
        if self.exhausted:
            return False
        self.used += 1
        return True


def _clone(case: FuzzCase, **changes) -> FuzzCase:
    """Copy with deep-copied mutable fields, then apply ``changes``."""
    fresh = replace(
        case,
        threads=[list(t) for t in case.threads],
        static_regions=list(case.static_regions),
        tlb_geometry={
            name: list(geometry)
            for name, geometry in case.tlb_geometry.items()
        },
    )
    for name, value in changes.items():
        setattr(fresh, name, value)
    return fresh


def _try(
    candidate: FuzzCase,
    predicate: Callable[[FuzzCase], bool],
    budget: _Budget,
) -> bool:
    """Whether ``candidate`` still fails (False once budget is gone)."""
    if not budget.spend():
        return False
    try:
        return bool(predicate(candidate))
    except Exception:
        # A candidate that crashes the predicate itself is not a
        # reproducer of the original failure; discard it.
        return False


def _drop_threads(
    case: FuzzCase, predicate, budget: _Budget
) -> FuzzCase:
    """Stage 1: remove whole threads while the failure survives."""
    changed = True
    while changed and len(case.threads) > 1 and not budget.exhausted:
        changed = False
        for i in range(len(case.threads)):
            threads = [t for j, t in enumerate(case.threads) if j != i]
            candidate = _clone(case, threads=threads)
            if _try(candidate, predicate, budget):
                case = candidate
                changed = True
                break
    return case


def _ddmin_stream(
    case: FuzzCase, thread: int, predicate, budget: _Budget
) -> FuzzCase:
    """Stage 2: delta-debug one thread's access list."""
    stream = case.threads[thread]
    chunk = max(1, len(stream) // 2)
    while chunk >= 1 and not budget.exhausted:
        start = 0
        while start < len(stream) and not budget.exhausted:
            trimmed = stream[:start] + stream[start + chunk :]
            if not trimmed and len(case.threads) == 1:
                # An empty single-thread case runs nothing; pointless.
                start += chunk
                continue
            threads = [list(t) for t in case.threads]
            threads[thread] = trimmed
            candidate = _clone(case, threads=threads)
            if _try(candidate, predicate, budget):
                case = candidate
                stream = trimmed
                # Do not advance: the next chunk shifted into place.
            else:
                start += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return case


def _window_for(case: FuzzCase) -> int:
    """Smallest region-aligned window covering the case's pages."""
    top = max((p for t in case.threads for p in t), default=0)
    regions = top // PAGES_PER_REGION + 1
    return max(PAGES_PER_REGION, regions * PAGES_PER_REGION)


def _simplify_knobs(
    case: FuzzCase, predicate, budget: _Budget
) -> FuzzCase:
    """Stage 3: push each knob to its most boring value."""
    attempts: list[dict] = [
        {"demotion": False},
        {"giga": False},
        {"thread_quantum": 2048},
        {"fragmentation": 0.0},
        {"pcc_dump_mode": "flush"},
        {"pcc_replacement": "lfu"},
        {"tlb_replacement": "lru"},
        {"tlb_geometry": {}},
        {"static_regions": []},
        {"pcc_counter_bits": 8},
        {"pcc_entries": 4},
        {"regions_to_promote": 1},
        {"promote_every": 32},
        {"window_pages": _window_for(case)},
    ]
    for change in attempts:
        if budget.exhausted:
            break
        name, value = next(iter(change.items()))
        if getattr(case, name) == value:
            continue
        candidate = _clone(case, **change)
        if _try(candidate, predicate, budget):
            case = candidate
    return case


def shrink_case(
    case: FuzzCase,
    predicate: Callable[[FuzzCase], bool],
    budget: int = 500,
) -> FuzzCase:
    """Minimize ``case`` while ``predicate`` keeps returning True.

    ``predicate(candidate)`` must return True when the candidate still
    exhibits the original failure. The input case is never mutated; the
    returned case is the smallest failing variant found within
    ``budget`` predicate calls (the original case if nothing smaller
    still fails).
    """
    tracker = _Budget(budget)
    if not _try(case, predicate, tracker):
        # Not reproducible — flaky or environment-dependent; nothing
        # sound to shrink against.
        return case
    case = _drop_threads(case, predicate, tracker)
    for thread in range(len(case.threads)):
        case = _ddmin_stream(case, thread, predicate, tracker)
    case = _simplify_knobs(case, predicate, tracker)
    case = _clone(case, label=f"shrunk from seed {case.seed}")
    return case


def same_failure(
    check: Callable[[FuzzCase], object], domain: str
) -> Callable[[FuzzCase], bool]:
    """Predicate: ``check`` raises a failure in ``domain`` (or deeper).

    Matching on the domain prefix rather than the full detail keeps the
    shrinker from chasing a *different* bug mid-reduction while still
    allowing the detail text to change as the case gets smaller.
    """
    from repro.validation.oracle import ValidationFailure

    def predicate(candidate: FuzzCase) -> bool:
        try:
            check(candidate)
        except ValidationFailure as failure:
            return failure.domain == domain or failure.domain.startswith(
                domain + "."
            )
        except AssertionError:
            return False
        return False

    return predicate


# ----------------------------------------------------------------------
# corpus persistence


def write_reproducer(
    case: FuzzCase,
    failure: "Exception | None",
    directory: Path | str = DEFAULT_CORPUS_DIR,
) -> Path:
    """Persist a shrunk case (plus what it broke) as a corpus file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "schema": CORPUS_SCHEMA,
        "case": case.to_dict(),
        "failure": {
            "domain": getattr(failure, "domain", None),
            "detail": getattr(failure, "detail", str(failure or "")),
        },
    }
    path = directory / f"case-{case.case_id}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path: Path | str) -> tuple[FuzzCase, dict]:
    """Load one corpus file back into a case + failure record."""
    record = json.loads(Path(path).read_text())
    if record.get("schema") != CORPUS_SCHEMA:
        raise ValueError(
            f"{path}: unknown corpus schema {record.get('schema')!r}"
        )
    return FuzzCase.from_dict(record["case"]), record.get("failure", {})


def iter_corpus(directory: Path | str = DEFAULT_CORPUS_DIR) -> Iterator[Path]:
    """Corpus files under ``directory``, in stable order."""
    directory = Path(directory)
    if not directory.is_dir():
        return iter(())
    return iter(sorted(directory.glob("case-*.json")))
