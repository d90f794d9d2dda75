"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``bound``
    Parse a query, collect statistics over a database loaded from CSV
    files, and print the bound with its certificate.
``experiment``
    Run one of the paper experiments (E1–E13) and print its table.
``serve``
    Run the long-lived bound-serving HTTP service over CSV tables
    (see ``docs/service.md`` for the API and runbook).
``list``
    List available experiments.

Examples
--------
::

    python -m repro list
    python -m repro experiment E7
    python -m repro bound --query "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)" \
        --table R=edges.csv --norms 1,2,3,inf
    python -m repro serve --table R=edges.csv --port 8750 \
        --warm "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)"
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Sequence

from . import parse_query
from .core import (
    BoundSolver,
    BoundTask,
    StatisticsCatalog,
    lp_bound_many,
    product_form,
)
from .relational import Database, Relation

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS: dict[str, str] = {
    "E1": "triangle",
    "E2": "one_join",
    "E3": "job",
    "E4": "cycle",
    "E5": "dsb_gap",
    "E6": "normal_vs_product",
    "E7": "nonshannon",
    "E8": "evaluation_runtime",
    "E9": "norm_ablation",
    "E10": "lp_scaling",
    "E11": "chain",
    "E12": "loomis_whitney",
    "E13": "appendix_b",
    "E14": "star",
}


def _parse_norms(text: str) -> list[float]:
    norms = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        norms.append(math.inf if token in ("inf", "∞") else float(token))
    if not norms:
        raise argparse.ArgumentTypeError("no norms given")
    return norms


def _load_csv_relation(path: str, name: str) -> Relation:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = []
        for row in reader:
            converted = []
            for cell in row:
                try:
                    converted.append(int(cell))
                except ValueError:
                    converted.append(cell)
            rows.append(tuple(converted))
    return Relation(tuple(header), rows, name=name)


def _cmd_bound(args: argparse.Namespace) -> int:
    queries = [parse_query(text) for text in args.query]
    relations = {}
    for spec in args.table:
        name, _, path = spec.partition("=")
        if not path:
            print(f"--table expects NAME=PATH, got {spec!r}", file=sys.stderr)
            return 2
        relations[name] = _load_csv_relation(path, name)
    db = Database(relations)
    # the batched pipeline: one catalog pass collects every query's
    # statistics (each degree sequence once, multi-p norm batches), then
    # the independent LPs fan out through one structure-cached solver.
    catalog = StatisticsCatalog(db)
    all_stats = catalog.precompute(queries, ps=args.norms)
    results = lp_bound_many(
        [
            BoundTask(stats, query=query)
            for query, stats in zip(queries, all_stats)
        ],
        solver=BoundSolver(),
        max_workers=args.workers,
    )
    for i, (query, result) in enumerate(zip(queries, results)):
        if i:
            print()
        print(f"query    : {query}")
        print(f"status   : {result.status} (cone: {result.cone})")
        print(
            f"bound    : {result.bound:.6g}  (log2 = {result.log2_bound:.4f})"
        )
        if result.status == "optimal":
            print(f"norms    : {result.norms_used()}")
            print(f"certificate: |Q| ≤ {product_form(result)}")
    return 0


#: The optional ``experiment`` flags, as (flag, ``main`` keyword) pairs in
#: the order they are checked: an experiment whose ``main`` lacks the
#: keyword refuses the flag.
_EXPERIMENT_FLAGS = (
    ("--frontier-block", "frontier_block"),
    ("--sink", "sink"),
    ("--spill-dir", "spill_dir"),
    ("--memory-budget", "memory_budget"),
    ("--deadline", "deadline"),
    ("--parallel-workers", "parallel_workers"),
    ("--part-timeout", "part_timeout"),
    ("--retries", "retries"),
    ("--resume", "resume"),
    ("--inject-faults", "inject_faults"),
)

#: The keywords of the flags that supervise ``--parallel-workers``.
_SUPERVISED = frozenset({"part_timeout", "retries", "resume", "inject_faults"})


def _cmd_experiment(args: argparse.Namespace) -> int:
    key = args.id.upper()
    module_name = EXPERIMENTS.get(key, args.id)
    if module_name not in EXPERIMENTS.values():
        print(f"unknown experiment {args.id!r}; try `list`", file=sys.stderr)
        return 2
    import importlib
    import inspect

    module = importlib.import_module(f"repro.experiments.{module_name}")
    params = inspect.signature(module.main).parameters
    if args.frontier_block is not None and args.frontier_block < 1:
        print(
            f"--frontier-block must be ≥ 1, got {args.frontier_block}",
            file=sys.stderr,
        )
        return 2
    if args.spill_dir is not None and args.sink != "spill":
        print("--spill-dir requires --sink spill", file=sys.stderr)
        return 2
    if args.memory_budget is not None or args.deadline is not None:
        # fail fast on a malformed budget spec, before any evaluation
        from .evaluation import budget_from_spec

        try:
            budget_from_spec(
                memory=args.memory_budget, deadline=args.deadline
            )
        except ValueError as exc:
            print(f"--memory-budget/--deadline: {exc}", file=sys.stderr)
            return 2
    supervised = [
        flag
        for flag, name in _EXPERIMENT_FLAGS
        if name in _SUPERVISED and getattr(args, name) is not None
    ]
    if args.parallel_workers is None:
        if supervised:
            print(
                f"{', '.join(supervised)} require(s) --parallel-workers",
                file=sys.stderr,
            )
            return 2
    elif args.parallel_workers < 1:
        print(
            f"--parallel-workers must be ≥ 1, got {args.parallel_workers}",
            file=sys.stderr,
        )
        return 2
    elif args.inject_faults is not None:
        # fail fast on a malformed spec, before any evaluation runs
        from .evaluation import parse_fault_spec

        try:
            parse_fault_spec(args.inject_faults)
        except ValueError as exc:
            print(f"--inject-faults: {exc}", file=sys.stderr)
            return 2
    kwargs = {}
    for flag, name in _EXPERIMENT_FLAGS:
        value = getattr(args, name)
        if value is None:
            continue
        # only the drivers that evaluate queries take these
        if name not in params:
            print(f"experiment {key} does not take {flag}", file=sys.stderr)
            return 2
        kwargs[name] = value
    return _run_experiment_main(module, params, kwargs)


def _run_experiment_main(module, params, kwargs) -> int:
    """Invoke one experiment's ``main`` under governance plumbing.

    Experiments whose ``main`` accepts a ``cancel_token`` get one wired
    to SIGINT/SIGTERM: the first signal requests a cooperative cancel
    (the evaluators stop at the next block boundary, flushing any
    checkpoint manifest), a second one falls through to the normal
    KeyboardInterrupt.  Governance stops map to distinct exit codes —
    130 cancelled, 124 deadline, 125 memory — with the diagnostic
    snapshot (and a ``--resume`` hint when a checkpoint survives) on
    stderr instead of a traceback.
    """
    import signal

    from .evaluation import (
        CancellationToken,
        EvaluationCancelled,
        EvaluationDeadlineExceeded,
        ResourceGovernanceError,
    )

    token = None
    previous: dict[int, object] = {}
    if "cancel_token" in params:
        token = CancellationToken()
        kwargs["cancel_token"] = token

        def _request_cancel(signum, frame):
            if token.cancelled:  # second signal: stop being graceful
                raise KeyboardInterrupt
            token.cancel()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _request_cancel)
            except (ValueError, OSError):  # pragma: no cover - not main thread
                pass
    try:
        print(module.main(**kwargs))
    except ResourceGovernanceError as exc:
        snapshot = exc.snapshot
        print(f"evaluation stopped: {snapshot.describe()}", file=sys.stderr)
        if snapshot.run_dir:
            print(
                f"checkpoint kept: re-run with --resume {snapshot.run_dir} "
                "to continue from the completed parts",
                file=sys.stderr,
            )
        if isinstance(exc, EvaluationCancelled):
            return 130
        if isinstance(exc, EvaluationDeadlineExceeded):
            return 124
        return 125  # MemoryBudgetExceeded
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core import active_lp_mode, set_lp_mode
    from .service import BoundService, BoundServiceServer, ServiceError

    if args.lp is not None:
        set_lp_mode(args.lp)
    relations = {}
    for spec in args.table:
        name, _, path = spec.partition("=")
        if not path:
            print(f"--table expects NAME=PATH, got {spec!r}", file=sys.stderr)
            return 2
        relations[name] = _load_csv_relation(path, name)
    if not relations:
        print("serve needs at least one --table NAME=PATH", file=sys.stderr)
        return 2
    cache_bytes = None
    if args.cache_budget is not None:
        from .evaluation import parse_memory_size

        try:
            cache_bytes = parse_memory_size(args.cache_budget)
        except ValueError as exc:
            print(f"--cache-budget: {exc}", file=sys.stderr)
            return 2
    if args.max_concurrent_evaluations is not None \
            and args.max_concurrent_evaluations < 1:
        print("--max-concurrent-evaluations must be ≥ 1", file=sys.stderr)
        return 2
    if args.evaluate_queue is not None and args.evaluate_queue < 0:
        print("--evaluate-queue must be ≥ 0", file=sys.stderr)
        return 2
    if args.evaluate_queue_timeout < 0:
        print("--evaluate-queue-timeout must be ≥ 0", file=sys.stderr)
        return 2
    service = BoundService(
        Database(relations),
        ps=tuple(args.norms),
        cache_bytes=cache_bytes,
        max_concurrent_evaluations=args.max_concurrent_evaluations,
        max_evaluate_queue=args.evaluate_queue,
        evaluate_queue_timeout=args.evaluate_queue_timeout,
    )
    if args.warm:
        try:
            warmed = service.precompute(args.warm)
        except ServiceError as exc:
            print(f"--warm: {exc.message}", file=sys.stderr)
            return 2
        print(f"warmed {warmed} query template(s)", file=sys.stderr)
    server = BoundServiceServer(
        service, (args.host, args.port), log_requests=args.log_requests
    )
    print(f"serving on {server.url} (lp mode: "
          f"{active_lp_mode()}); Ctrl-C stops", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    for key, module_name in EXPERIMENTS.items():
        print(f"{key:5s} repro.experiments.{module_name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LpBound: join size bounds from lp-norms (PODS 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="bound queries over CSV tables")
    bound.add_argument(
        "--query",
        required=True,
        action="append",
        help="datalog-style query (repeatable: queries share one "
        "statistics pass and solver)",
    )
    bound.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads for solving many queries (default: cpu count)",
    )
    bound.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="CSV file backing a relation (repeatable)",
    )
    bound.add_argument(
        "--norms",
        type=_parse_norms,
        default=[1.0, 2.0, 3.0, math.inf],
        help="comma-separated p values, e.g. 1,2,3,inf",
    )
    bound.set_defaults(func=_cmd_bound)

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("id", help="experiment id (E1..E14) or module name")
    experiment.add_argument(
        "--frontier-block",
        type=int,
        default=None,
        metavar="N",
        help="cap the WCOJ's live frontier at N candidate bindings per "
        "level (experiments that evaluate queries, e.g. E14); results "
        "are bit-identical to the unblocked run",
    )
    experiment.add_argument(
        "--sink",
        choices=("materialize", "count", "spill"),
        default=None,
        help="route the evaluators' output through one sink mode "
        "(experiments that evaluate queries, e.g. E14): materialize "
        "the rows, count them in O(1) memory, or spill them to disk "
        "segments; counts, row order, and meters are bit-identical "
        "across sinks",
    )
    experiment.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="directory for --sink spill segment files (default: a "
        "temporary directory); concurrent runs must use distinct "
        "directories",
    )
    experiment.add_argument(
        "--parallel-workers",
        type=int,
        default=None,
        metavar="N",
        help="also run the supervised parallel evaluator with N worker "
        "processes over the Lemma 2.5 part combinations (experiments "
        "that evaluate queries, e.g. E8/E14); results are verified "
        "against the serial run",
    )
    experiment.add_argument(
        "--part-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per part attempt before the worker is "
        "killed and the part retried (requires --parallel-workers)",
    )
    experiment.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts per part before serial degradation "
        "(requires --parallel-workers)",
    )
    experiment.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="checkpoint directory: completed parts recorded there are "
        "not re-evaluated on re-invocation (requires "
        "--parallel-workers)",
    )
    experiment.add_argument(
        "--memory-budget",
        default=None,
        metavar="SPEC",
        help="memory budget for governed evaluation (experiments that "
        "evaluate queries, e.g. E14): 'HARD' or 'SOFT:HARD' with K/M/G "
        "suffixes (256M, 128M:512M); crossing the soft watermark walks "
        "a degradation ladder (smaller frontier blocks, then spilling) "
        "without changing results; reaching the hard cap aborts with a "
        "diagnostic snapshot and exit code 125",
    )
    experiment.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the experiment's evaluations; "
        "checked cooperatively at block boundaries, exceeded deadlines "
        "abort with a diagnostic and exit code 124; with "
        "--parallel-workers the remaining time is apportioned to each "
        "part",
    )
    experiment.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="chaos mode: deterministic fault plan for the parallel "
        "workers, e.g. 'part=3:hang,part=5:exit' or "
        "'seed=7,rate=0.3,kinds=raise+exit'; kinds 'memory' and "
        "'clock' bias the workers' governors (pair with "
        "--memory-budget/--deadline) (requires --parallel-workers)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    serve = sub.add_parser(
        "serve", help="run the bound-serving HTTP service over CSV tables"
    )
    serve.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="CSV file backing a relation (repeatable; at least one)",
    )
    serve.add_argument(
        "--norms",
        type=_parse_norms,
        default=[1.0, 2.0, math.inf],
        help="norm family collected per query, e.g. 1,2,inf (requests "
        "may restrict to a sub-family but not widen it)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8750,
        help="bind port (default: 8750; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--warm",
        action="append",
        default=[],
        metavar="QUERY",
        help="query template to precompute at startup (repeatable): one "
        "batched statistics pass plus one solve, so the first real "
        "request is already a cache hit",
    )
    serve.add_argument(
        "--lp",
        choices=("persistent", "oneshot"),
        default=None,
        help="LP solve mode (default: REPRO_LP, else 'persistent'): "
        "'persistent' keeps one warm HiGHS model per LP structure, "
        "'oneshot' builds a fresh model per solve; bounds agree to "
        "1e-9 across modes",
    )
    serve.add_argument(
        "--cache-budget",
        default=None,
        metavar="SIZE",
        help="total byte budget for the service's caches (parsed "
        "queries, statistics, solver results/assemblies and their warm "
        "LP models) with K/M/G "
        "suffixes, e.g. 64M; least-recently-used entries are evicted "
        "beyond it (evictions surface in /metrics); default: unbounded",
    )
    serve.add_argument(
        "--max-concurrent-evaluations",
        type=int,
        default=None,
        metavar="N",
        help="/evaluate admission cap: at most N evaluations run at "
        "once (default: half the cores, at least 1); /bound is never "
        "capped or queued",
    )
    serve.add_argument(
        "--evaluate-queue",
        type=int,
        default=None,
        metavar="N",
        help="waiters admitted beyond the cap before /evaluate refuses "
        "with a typed 429 (default: 2x the cap)",
    )
    serve.add_argument(
        "--evaluate-queue-timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="longest a queued /evaluate waits for a slot before the "
        "typed 429 refusal (default: 2.0)",
    )
    serve.add_argument(
        "--log-requests",
        action="store_true",
        help="log one line per HTTP request to stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    lister = sub.add_parser("list", help="list available experiments")
    lister.set_defaults(func=_cmd_list)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
