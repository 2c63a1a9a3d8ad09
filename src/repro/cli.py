"""Command-line interface: ``python -m repro <experiment> [options]``.

Runs one of the paper's experiments and prints the same rows/series the
corresponding figure or table reports. Example::

    python -m repro --scale quick fig7 --apps BFS,PR
    python -m repro --jobs 4 fig5 --budgets 0,4,100
    python -m repro table1
    python -m repro compare --app BFS --fragmentation 0.5

Observability: every experiment accepts ``--metrics-out`` (aggregate
``repro.metrics/v1`` JSON) and ``--trace-out`` (Perfetto-loadable
Chrome trace-event JSON). ``repro trace <experiment> ...`` is shorthand
that picks a default trace path, and ``repro inspect <file>`` reports
slowest spans, hottest regions, and latency percentiles from either
artifact.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.experiments import ablations, fig1, fig2, fig5, fig6, fig7, fig8, fig9, tables
from repro.experiments.common import FULL, QUICK, ExperimentScale


def _scale_of(name: str) -> ExperimentScale:
    scales = {"quick": QUICK, "full": FULL}
    if name not in scales:
        raise SystemExit(f"unknown scale {name!r}; choose from {sorted(scales)}")
    return scales[name]


def _split(value: str | None) -> list[str] | None:
    if not value:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def _int_tuple(value: str | None, default: tuple[int, ...]) -> tuple[int, ...]:
    if not value:
        return default
    return tuple(int(item) for item in value.split(","))


def _add_output_options(
    parser: argparse.ArgumentParser, subcommand: bool = False
) -> None:
    """The uniform artifact options every experiment accepts.

    Added to the root parser *and* to each experiment subparser so both
    ``repro --metrics-out m.json fig7`` and ``repro fig7 --metrics-out
    m.json`` work. A subparser parses into a fresh namespace and copies
    every attribute back over the root's, so the subcommand copies use
    ``SUPPRESS`` defaults — absent there, a value parsed before the
    subcommand survives; present, the later value wins.
    """
    default = argparse.SUPPRESS if subcommand else None
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=default,
        help="write a repro.metrics/v1 JSON aggregate of every "
        "simulation run performed by the command",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=default,
        help="enable span tracing and write a Perfetto-loadable Chrome "
        "trace-event JSON file (fan-out worker spans included)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the PCC paper's tables and figures.",
    )
    parser.add_argument(
        "--scale",
        default="quick",
        help="experiment scale: quick (default) or full",
    )
    _add_output_options(parser)
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="run independent configurations across N worker processes "
        "(0 = all cores; default: $REPRO_JOBS or serial). Workers share "
        "traces through the on-disk cache ($REPRO_TRACE_CACHE or "
        "~/.cache/repro-traces).",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep: load finished configurations "
        "from the run journal ($REPRO_JOURNAL or ~/.cache/repro-journal) "
        "and only recompute the rest",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    experiment_parsers: list[argparse.ArgumentParser] = []

    def experiment(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        experiment_parsers.append(p)
        return p

    p_fig1 = experiment("fig1", help="motivation: page sizes vs Linux THP")
    p_fig1.add_argument("--apps", help="comma-separated app subset")

    experiment("fig2", help="reuse-distance characterization")

    p_fig5 = experiment("fig5", help="utility curves PCC vs HawkEye")
    p_fig5.add_argument("--apps", help="comma-separated app subset")
    p_fig5.add_argument("--budgets", help="comma-separated budget percents")

    experiment("fig6", help="PCC size sensitivity")

    p_fig7 = experiment("fig7", help="90%%-fragmented comparison")
    p_fig7.add_argument("--apps", help="comma-separated graph-app subset")
    p_fig7.add_argument(
        "--fragmentation", type=float, default=0.9, help="fraction fragmented"
    )
    p_fig7.add_argument(
        "--tlb-replacement",
        default="lru",
        choices=("lru", "plru"),
        help="TLB victim policy ablation axis: true LRU (default, the "
        "model's historical behaviour) or tree-PLRU (what real "
        "translation hardware implements)",
    )

    experiment("fig8", help="multithread policies")

    p_fig9 = experiment("fig9", help="multiprocess case study")
    p_fig9.add_argument("--pair", default="PR,mcf", help="two apps, comma-separated")

    experiment("table1", help="workload inventory + system parameters")
    experiment("ablations", help="replacement-policy and PWC ablations")

    p_sens = experiment(
        "sensitivity",
        help="sweeps of design constants the paper fixes: counter width, "
        "promotion interval, admission filter",
    )
    p_sens.add_argument("--app", default="BFS")
    p_sens.add_argument(
        "--study",
        default="all",
        choices=("counter-bits", "interval", "filter", "all"),
        help="which sensitivity study to run (default all)",
    )

    p_cmp = experiment("compare", help="one workload under all policies")
    p_cmp.add_argument("--app", default="BFS")
    p_cmp.add_argument("--fragmentation", type=float, default=0.0)

    p_stats = experiment("stats", help="trace statistics of one workload")
    p_stats.add_argument("--app", default="BFS")
    p_stats.add_argument("--dataset", default="kronecker")

    p_record = experiment(
        "record",
        help="step 1 of the paper's methodology: offline PCC simulation "
        "writing a promotion-candidate schedule",
    )
    p_record.add_argument("--app", default="BFS")
    p_record.add_argument("--out", required=True, help="schedule file path")

    p_replay = experiment(
        "replay",
        help="step 2: re-run the workload applying a recorded schedule",
    )
    p_replay.add_argument("--app", default="BFS")
    p_replay.add_argument("--schedule", required=True)
    p_replay.add_argument("--fragmentation", type=float, default=0.0)

    p_score = experiment(
        "scorecard",
        help="collate archived benchmark renderings into one report",
    )
    p_score.add_argument("--results", help="results directory override")

    p_val = experiment(
        "validate",
        help="differential oracle: fuzz engine tiers and OS policies "
        "against each other, or replay the regression corpus",
    )
    p_val.add_argument(
        "--fuzz",
        type=int,
        default=25,
        metavar="N",
        help="number of random cases to generate and check (default 25)",
    )
    p_val.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="first case seed; CI passes a per-run value so every build "
        "explores fresh cases (default 0, deterministic locally)",
    )
    p_val.add_argument(
        "--min-threads",
        type=int,
        default=1,
        metavar="T",
        help="raise every generated case's thread-count floor (2+ pins "
        "the multi-thread columnar epoch path; default 1)",
    )
    p_val.add_argument(
        "--replay",
        metavar="DIR",
        help="replay every corpus reproducer under DIR instead of "
        "fuzzing; all must pass on a healthy engine",
    )
    p_val.add_argument(
        "--corpus-dir",
        metavar="DIR",
        default=None,
        help="where failing cases are shrunk and persisted "
        "(default tests/corpus)",
    )
    p_val.add_argument(
        "--inject-defect",
        metavar="NAME",
        help="self-test: install a named deliberate defect first and "
        "require the harness to catch it (see repro.validation.defects)",
    )
    p_val.add_argument(
        "--shrink-budget",
        type=int,
        default=400,
        metavar="N",
        help="predicate-call budget for minimizing a failing case",
    )
    p_val.add_argument(
        "--tlb-replacement",
        default="lru",
        choices=("lru", "plru"),
        help="TLB victim policy every generated case runs under "
        "(default lru)",
    )

    p_cc = experiment(
        "crosscheck",
        help="reference oracle: drive the engine's TLB/PTW stack and an "
        "independent Ariane-semantics model with identical address "
        "streams and compare hit levels, victims, and walk traffic",
    )
    p_cc.add_argument(
        "--cases",
        type=int,
        default=25,
        metavar="N",
        help="number of fuzz cases per replacement policy (default 25)",
    )
    p_cc.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="first case seed; CI passes a per-run value so every build "
        "explores fresh cases (default 0, deterministic locally)",
    )
    p_cc.add_argument(
        "--tlb-replacement",
        default="both",
        choices=("both", "lru", "plru"),
        help="which victim policies to cross-check (default both)",
    )
    p_cc.add_argument(
        "--inject-defect",
        metavar="NAME",
        help="self-test: install a named deliberate defect first and "
        "require the cross-check to catch it",
    )
    p_cc.add_argument(
        "--corpus-dir",
        metavar="DIR",
        default=None,
        help="where failing cases are shrunk and persisted "
        "(default tests/corpus)",
    )
    p_cc.add_argument(
        "--shrink-budget",
        type=int,
        default=400,
        metavar="N",
        help="predicate-call budget for minimizing a failing case",
    )

    p_serve = experiment(
        "serve",
        help="run the crash-safe simulation service (HTTP/JSON on the "
        "resilient fan-out; jobs survive kill -9 via the run journal)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8023,
                         help="bind port; 0 picks a free port (default 8023)")
    p_serve.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="service state root (job + results journals; default "
        "$REPRO_SERVE_STATE or ~/.cache/repro-serve)",
    )
    p_serve.add_argument("--queue-limit", type=int, default=256,
                         help="total queued-job ceiling (default 256)")
    p_serve.add_argument("--tenant-quota", type=int, default=64,
                         help="queued-job ceiling per tenant (default 64)")
    p_serve.add_argument("--executors", type=int, default=2,
                         help="concurrent job executor slots (default 2)")
    p_serve.add_argument("--max-width", type=int, default=2,
                         help="cap on a job's requested fan-out width "
                         "(default 2)")

    for experiment_parser in experiment_parsers:
        _add_output_options(experiment_parser, subcommand=True)

    p_trace = sub.add_parser(
        "trace",
        help="run any repro command with span tracing on, e.g. "
        "'repro trace fig7' (default output trace-<run_id>.json)",
    )
    p_trace.add_argument(
        "command",
        nargs=argparse.REMAINDER,
        help="the repro command line to trace",
    )

    p_inspect = sub.add_parser(
        "inspect",
        help="summarize a metrics or trace artifact: slowest spans, "
        "hottest regions, latency percentiles",
    )
    p_inspect.add_argument("file", help="metrics JSON or trace JSON path")
    p_inspect.add_argument(
        "--check",
        action="store_true",
        help="validate the document against its schema; exit 1 on any "
        "violation",
    )
    p_inspect.add_argument(
        "--top", type=int, default=10, help="rows per ranking (default 10)"
    )

    p_progress = sub.add_parser(
        "progress",
        help="tail one job's live SSE progress stream until it reaches "
        "a terminal state",
    )
    p_progress.add_argument("job_id", help="job id to follow")
    p_progress.add_argument(
        "--server", default="127.0.0.1:8023", metavar="URL",
        help="server address (default 127.0.0.1:8023)",
    )
    p_progress.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="give up after this many seconds (default 600)",
    )
    return parser


def _run_compare(args, scale: ExperimentScale) -> str:
    import copy

    from repro.analysis import report
    from repro.engine.simulation import Simulator
    from repro.experiments.common import config_for
    from repro.os.kernel import HugePagePolicy

    workload = scale.workload(args.app)
    config = config_for(workload)
    rows = []
    baseline_cycles = None
    for label, policy in (
        ("4KB baseline", HugePagePolicy.NONE),
        ("Linux THP", HugePagePolicy.LINUX_THP),
        ("HawkEye", HugePagePolicy.HAWKEYE),
        ("PCC", HugePagePolicy.PCC),
        ("All-huge ideal", HugePagePolicy.IDEAL),
    ):
        frag = 0.0 if policy is HugePagePolicy.IDEAL else args.fragmentation
        result = Simulator(config, policy=policy, fragmentation=frag).run(
            [copy.deepcopy(workload)]
        )
        if baseline_cycles is None:
            baseline_cycles = result.total_cycles
        rows.append(
            [
                label,
                report.speedup(baseline_cycles / result.total_cycles),
                report.percent(result.walk_rate),
                result.promotions,
            ]
        )
    return report.format_table(
        ["Policy", "Speedup", "TLB miss %", "Promotions"],
        rows,
        title=(
            f"{args.app} at {args.fragmentation:.0%} fragmentation "
            f"({scale.name} scale)"
        ),
    )


def _run_serve(args) -> int:
    from repro.serve.server import ServeConfig
    from repro.serve.server import run as run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        queue_limit=args.queue_limit,
        tenant_quota=args.tenant_quota,
        executors=args.executors,
        max_width=args.max_width,
    )
    return run_server(config)


def _run_validate(args) -> int:
    import contextlib

    from repro.validation import defects
    from repro.validation.generators import generate_case
    from repro.validation.oracle import ValidationFailure, check_case
    from repro.validation.reference import check_case_or_crosscheck
    from repro.validation.shrink import (
        DEFAULT_CORPUS_DIR,
        iter_corpus,
        load_reproducer,
        same_failure,
        shrink_case,
        write_reproducer,
    )

    corpus_dir = args.corpus_dir or DEFAULT_CORPUS_DIR
    injection = (
        defects.inject(args.inject_defect)
        if args.inject_defect
        else contextlib.nullcontext()
    )

    with injection:
        if args.replay:
            paths = list(iter_corpus(args.replay))
            if not paths:
                print(f"validate: no corpus files under {args.replay}")
                return 0
            failures = 0
            corrupt = 0
            for path in paths:
                try:
                    case, past = load_reproducer(path)
                except (OSError, ValueError) as error:
                    # a corrupt reproducer must not kill the replay of
                    # every other case; report it and keep going
                    corrupt += 1
                    print(f"BAD  {path.name}: unreadable reproducer "
                          f"({error})")
                    continue
                try:
                    # reference.* reproducers re-run through the
                    # cross-check harness that found them; everything
                    # else goes back through the tier oracle
                    check_case_or_crosscheck(case, past.get("domain"))
                except ValidationFailure as failure:
                    failures += 1
                    print(f"FAIL {path.name}: {failure}")
                    print(f"     first seen as: [{past.get('domain')}] "
                          f"{past.get('detail')}")
                else:
                    print(f"ok   {path.name} ({case.total_accesses} accesses, "
                          f"{case.policy})")
            print(f"validate: replayed {len(paths)} corpus cases, "
                  f"{failures} failing, {corrupt} unreadable")
            return 1 if failures or corrupt else 0

        plru = args.tlb_replacement == "plru"
        notes = 0
        for seed in range(args.seed, args.seed + args.fuzz):
            # Under tree-PLRU the cases rotate through the cross-check's
            # wider geometries: the tiny default is all 2-way, where
            # PLRU and LRU pick the same victims.
            case = generate_case(
                seed,
                min_threads=args.min_threads,
                tlb_replacement="plru" if plru else None,
                tlb_geometry=(
                    CROSSCHECK_GEOMETRIES[seed % len(CROSSCHECK_GEOMETRIES)]
                    if plru
                    else None
                ),
            )
            try:
                report = check_case(case)
            except ValidationFailure as failure:
                print(f"FAIL {case.describe()}")
                print(f"     {failure}")
                predicate = same_failure(check_case, failure.domain)
                small = shrink_case(
                    case, predicate, budget=args.shrink_budget
                )
                path = write_reproducer(small, failure, corpus_dir)
                print(
                    f"     shrunk {case.total_accesses} -> "
                    f"{small.total_accesses} accesses, reproducer: {path}"
                )
                if args.inject_defect:
                    # Self-test: catching the planted defect is success.
                    print(
                        f"validate: defect {args.inject_defect!r} caught "
                        f"and shrunk"
                    )
                    return 0
                return 1
            notes += len(report.notes)
        print(
            f"validate: {args.fuzz} cases ok (seeds {args.seed}.."
            f"{args.seed + args.fuzz - 1}), {notes} advisory notes"
        )
        if args.inject_defect:
            # Self-test mode *expects* the defect to be caught; silence
            # here means the harness has a blind spot.
            print(
                f"validate: defect {args.inject_defect!r} was NOT caught"
            )
            return 1
        return 0


#: Geometry overrides the cross-check rotates through, chosen to leave
#: the degenerate-equivalence regime: the tiny default config is all
#: 2-way (where tree-PLRU and true LRU coincide), so the sweep mixes in
#: wider and non-power-of-two set shapes where the policies genuinely
#: diverge. ``None`` keeps the case's default geometry.
CROSSCHECK_GEOMETRIES: tuple[dict | None, ...] = (
    None,
    {"l1_base": [6, 3], "l2": [12, 3]},
    {"l1_base": [8, 4], "l2": [16, 8]},
    {"l1_base": [8, 8], "l1_huge": [4, 4]},
)


def _run_crosscheck(args) -> int:
    import contextlib

    from repro.validation import defects
    from repro.validation.generators import generate_case
    from repro.validation.oracle import ValidationFailure
    from repro.validation.reference import check_crosscheck
    from repro.validation.shrink import (
        DEFAULT_CORPUS_DIR,
        same_failure,
        shrink_case,
        write_reproducer,
    )

    corpus_dir = args.corpus_dir or DEFAULT_CORPUS_DIR
    replacements = (
        ("lru", "plru")
        if args.tlb_replacement == "both"
        else (args.tlb_replacement,)
    )
    injection = (
        defects.inject(args.inject_defect)
        if args.inject_defect
        else contextlib.nullcontext()
    )

    with injection:
        checked = 0
        for seed in range(args.seed, args.seed + args.cases):
            geometry = CROSSCHECK_GEOMETRIES[
                seed % len(CROSSCHECK_GEOMETRIES)
            ]
            for replacement in replacements:
                case = generate_case(
                    seed,
                    tlb_replacement=(
                        replacement if replacement != "lru" else None
                    ),
                    tlb_geometry=geometry,
                )
                try:
                    check_crosscheck(case)
                    checked += 1
                except ValidationFailure as failure:
                    print(f"FAIL {case.describe()}")
                    print(f"     {failure}")
                    predicate = same_failure(
                        check_crosscheck, failure.domain
                    )
                    small = shrink_case(
                        case, predicate, budget=args.shrink_budget
                    )
                    path = write_reproducer(small, failure, corpus_dir)
                    print(
                        f"     shrunk {case.total_accesses} -> "
                        f"{small.total_accesses} accesses, "
                        f"reproducer: {path}"
                    )
                    if args.inject_defect:
                        print(
                            f"crosscheck: defect "
                            f"{args.inject_defect!r} caught and shrunk"
                        )
                        return 0
                    return 1
        print(
            f"crosscheck: {checked} machine-vs-reference runs agree "
            f"(seeds {args.seed}..{args.seed + args.cases - 1}, "
            f"policies {'/'.join(replacements)})"
        )
        if args.inject_defect:
            print(
                f"crosscheck: defect {args.inject_defect!r} was NOT "
                f"caught"
            )
            return 1
        return 0


def _run_inspect(args) -> int:
    from repro.obs import inspect as inspect_module

    try:
        doc = inspect_module.load_document(args.file)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"inspect: {exc}") from exc
    if args.check:
        errors = inspect_module.validate_document(doc)
        if errors:
            for error in errors:
                print(f"inspect: {error}", file=sys.stderr)
            print(
                f"inspect: {args.file}: {len(errors)} schema violation(s)",
                file=sys.stderr,
            )
            return 1
        print(f"inspect: {args.file}: schema OK")
    print(inspect_module.render(inspect_module.inspect_document(doc, top=args.top)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    import os

    from repro.obs.log import configure as configure_logging
    from repro.obs.runid import set_run_id
    from repro.resilience.journal import JOURNAL_ENV, default_journal_dir

    args = build_parser().parse_args(argv)
    # client-side commands: no run id, journal, or logging setup
    if args.experiment == "inspect":
        return _run_inspect(args)
    if args.experiment == "progress":
        from repro.serve.client import run_progress

        try:
            return run_progress(
                args.job_id, args.server, timeout_s=args.timeout
            )
        except KeyboardInterrupt:
            return 0
    run_id = set_run_id()
    configure_logging(force=True)
    if args.experiment == "trace":
        inner = [token for token in (args.command or []) if token != "--"]
        if not inner:
            raise SystemExit("trace: give a command to run, e.g. repro trace fig7")
        args = build_parser().parse_args(inner)
        if args.experiment in ("trace", "inspect", "progress"):
            raise SystemExit(f"trace: cannot wrap {args.experiment!r}")
        if not args.trace_out:
            args.trace_out = f"trace-{run_id}.json"
    scale = _scale_of(args.scale)
    # journal by default so an interrupted sweep can be picked up with
    # --resume; REPRO_JOURNAL=off opts out, an explicit path overrides
    os.environ.setdefault(JOURNAL_ENV, str(default_journal_dir()))
    if args.metrics_out:
        from pathlib import Path

        parent = Path(args.metrics_out).resolve().parent
        if not parent.is_dir():
            # fail before the runs, not after minutes of simulation
            raise SystemExit(
                f"--metrics-out: directory {parent} does not exist"
            )
    if args.trace_out:
        from pathlib import Path

        parent = Path(args.trace_out).resolve().parent
        if not parent.is_dir():
            raise SystemExit(
                f"--trace-out: directory {parent} does not exist"
            )
    return _run_with_artifacts(args, scale, run_id)


def _run_with_artifacts(args, scale: ExperimentScale, run_id: str) -> int:
    """Dispatch the experiment inside the requested artifact scopes."""
    import shutil
    import tempfile

    from repro.metrics import collecting
    from repro.obs import tracer as tracer_module

    tracer = None
    spool = None
    if args.trace_out:
        spool = tempfile.mkdtemp(prefix="repro-trace-spool-")
        tracer = tracer_module.enable(run_id, spool_dir=spool)
    try:
        if args.metrics_out:
            with collecting() as collector:
                status = _dispatch(args, scale)
            collector.write_json(args.metrics_out)
            print(f"metrics: {len(collector.runs)} runs -> {args.metrics_out}")
        else:
            status = _dispatch(args, scale)
    finally:
        if tracer is not None:
            doc = tracer.finalize(args.trace_out)
            tracer_module.disable()
            shutil.rmtree(spool, ignore_errors=True)
            print(
                f"trace: {len(doc['traceEvents'])} events (run {run_id}) "
                f"-> {args.trace_out}"
            )
    return status


def _dispatch(args, scale: ExperimentScale) -> int:
    jobs = getattr(args, "jobs", None)
    resume = getattr(args, "resume", False)
    if args.experiment == "fig1":
        print(
            fig1.render(
                fig1.run(scale, apps=_split(args.apps), jobs=jobs, resume=resume)
            )
        )
    elif args.experiment == "fig2":
        print(fig2.render(fig2.run(scale)))
    elif args.experiment == "fig5":
        from repro.analysis.utility import BUDGET_PERCENTS

        budgets = _int_tuple(args.budgets, BUDGET_PERCENTS)
        print(
            fig5.render(
                fig5.run(scale, apps=_split(args.apps), budgets=budgets,
                         jobs=jobs, resume=resume)
            )
        )
    elif args.experiment == "fig6":
        print(fig6.render(fig6.run(scale, jobs=jobs, resume=resume)))
    elif args.experiment == "fig7":
        apps = tuple(_split(args.apps) or ("BFS", "SSSP", "PR"))
        rows = fig7.run(
            scale, apps=apps, fragmentation=args.fragmentation, jobs=jobs,
            resume=resume, tlb_replacement=args.tlb_replacement,
        )
        print(fig7.render(rows, fragmentation=args.fragmentation,
                          tlb_replacement=args.tlb_replacement))
    elif args.experiment == "fig8":
        print(fig8.render(fig8.run(scale, jobs=jobs, resume=resume)))
    elif args.experiment == "fig9":
        pair = _split(args.pair)
        if not pair or len(pair) != 2:
            raise SystemExit("--pair needs exactly two apps, e.g. PR,mcf")
        print(
            fig9.render(
                fig9.run_case(pair[0], pair[1], scale, jobs=jobs, resume=resume)
            )
        )
    elif args.experiment == "table1":
        print(tables.render_table1(tables.run_table1(scale)))
        print()
        print(tables.render_table2())
    elif args.experiment == "ablations":
        print(
            ablations.render_replacement(
                ablations.run_replacement(scale, jobs=jobs, resume=resume)
            )
        )
        print()
        print(ablations.render_pwc(ablations.run_pwc(scale)))
    elif args.experiment == "sensitivity":
        from repro.experiments import sensitivity

        blocks = []
        if args.study in ("counter-bits", "all"):
            blocks.append(
                sensitivity.render_sweep(
                    sensitivity.counter_bits_sweep(
                        scale, app=args.app, jobs=jobs, resume=resume
                    )
                )
            )
        if args.study in ("interval", "all"):
            blocks.append(
                sensitivity.render_sweep(
                    sensitivity.interval_sweep(
                        scale, app=args.app, jobs=jobs, resume=resume
                    )
                )
            )
        if args.study in ("filter", "all"):
            speedups = sensitivity.admission_filter_study(scale, app=args.app)
            blocks.append(
                f"Admission filter ({args.app}): "
                f"with filter {speedups['with_filter']:.3f}x, "
                f"without {speedups['without_filter']:.3f}x"
            )
        print("\n\n".join(blocks))
    elif args.experiment == "compare":
        print(_run_compare(args, scale))
    elif args.experiment == "stats":
        import numpy as np

        from repro.analysis import tracestats
        from repro.trace.events import Trace

        workload = scale.workload(args.app, dataset=args.dataset)
        compressed = workload.threads[0].trace
        # expand the run-length records back to a page-accurate stream
        addresses = np.repeat(
            compressed.vpns.astype(np.uint64) << np.uint64(12),
            compressed.counts,
        )
        raw = Trace(
            workload.name, addresses, footprint_bytes=workload.footprint_bytes
        )
        print(tracestats.render(tracestats.analyze(raw, workload.layout)))
    elif args.experiment == "record":
        from repro.engine.offline import record_candidates
        from repro.engine.schedule_io import save_schedule
        from repro.experiments.common import config_for

        workload = scale.workload(args.app)
        schedule = record_candidates(workload, config_for(workload))
        path = save_schedule(schedule, args.out)
        print(
            f"recorded {len(schedule)} candidates over "
            f"{len(schedule.regions())} regions -> {path}"
        )
    elif args.experiment == "replay":
        from repro.analysis import report as report_module
        from repro.engine.offline import replay_with_schedule
        from repro.engine.simulation import Simulator
        from repro.engine.schedule_io import load_schedule
        from repro.experiments.common import config_for
        from repro.os.kernel import HugePagePolicy

        workload = scale.workload(args.app)
        config = config_for(workload)
        schedule = load_schedule(args.schedule)
        baseline = Simulator(
            config,
            policy=HugePagePolicy.NONE,
            fragmentation=args.fragmentation,
        ).run([scale.workload(args.app)])
        result = replay_with_schedule(
            workload, schedule, config, fragmentation=args.fragmentation
        )
        print(
            f"replayed {len(schedule)} scheduled candidates: "
            f"{result.promotions} promotions, speedup "
            f"{report_module.speedup(baseline.total_cycles / result.total_cycles)}, "
            f"TLB miss {report_module.percent(result.walk_rate)}"
        )
    elif args.experiment == "scorecard":
        from repro.experiments import summary

        scorecard = summary.build(args.results)
        print(scorecard.text)
    elif args.experiment == "serve":
        return _run_serve(args)
    elif args.experiment == "validate":
        return _run_validate(args)
    elif args.experiment == "crosscheck":
        return _run_crosscheck(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown experiment {args.experiment!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
