"""job-bound-sweep: the E9 norm ablation as an optimizer would run it.

One round is what a cost-based optimizer pays for a fresh database:
collect the statistics of the 33 JOB-like queries in one catalog pass,
solve each query under 6 nested norm families on one ``BoundSolver``
(198 LPs), and count every query's true answer with ``acyclic_count``
(timed as evaluations; the counts are the soundness oracle's truth).
Each query's first bound of the round, under the smallest family, is
its cold bound (the solver has not seen the query); its bounds under
the five larger families are warm ones (it has, so whatever the solver
keeps per query can be reused there).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core import BoundSolver, BoundTask, StatisticsCatalog, lp_bound_many
from repro.datasets.imdb import imdb_database
from repro.datasets.job_queries import JOB_QUERY_IDS, job_query
from repro.evaluation import acyclic_count
from repro.experiments.norm_ablation import DEFAULT_FAMILIES

from .common import Outcome, op_clock

#: the clock of set-up and per-operation times (both run on one thread)
CLOCK = op_clock
NAME = "job-bound-sweep"


@dataclass(frozen=True)
class Config:
    scale: float = 0.3
    query_ids: tuple[int, ...] = tuple(JOB_QUERY_IDS)
    #: E9's nested families up to {1..10,∞}; {1..30,∞} alone doubled the
    #: sweep with LPs of seconds whose times swung with the host's load
    #: far more than the rest of the sweep (see perfbench/README.md)
    families: tuple[tuple[float, ...], ...] = DEFAULT_FAMILIES[:6]
    setups: int = 21
    #: nominal seconds per round; a run measures round(seconds / this)
    #: rounds (at least one), so both sides of a comparison do equal work
    round_s: float = 3.5


FULL = Config()
SMOKE = Config(
    scale=0.05, query_ids=tuple(JOB_QUERY_IDS[:3]),
    families=DEFAULT_FAMILIES[:3], setups=1, round_s=1.0,
)


@dataclass
class State:
    db: object
    config: Config
    encode_s: float = 0.0

    def close(self) -> None:
        pass


def setup(seed: int, config: Config, workdir) -> State:
    db = imdb_database(scale=config.scale, seed=seed)
    start = CLOCK()
    for relation in db.relations():
        relation.columnar()
    return State(db, config, CLOCK() - start)


def _round(state: State, tracer, out: Outcome, index: int) -> None:
    config = state.config
    out.steps.append([])
    with out.step():
        with tracer.span("parse", "job_query"):
            queries = [job_query(qid) for qid in config.query_ids]
        catalog = StatisticsCatalog(state.db)
        all_ps = sorted(set().union(*config.families))
        with tracer.span("statistics", "StatisticsCatalog.precompute"):
            all_stats = catalog.precompute(queries, ps=all_ps)
        solver = BoundSolver()
        tasks = [
            (family, query, BoundTask(stats, query=query, family=family))
            for family in config.families
            for query, stats in zip(queries, all_stats)
        ]
    # bounds and counts are interleaved, so a transient slowdown of the
    # host lands on a few samples of each kind, not on every sample of one
    uncounted = iter(queries)
    for position, (family, query, task) in enumerate(tasks):
        kind = "cold_bound" if position < len(queries) else "bound"
        with out.step():
            _bound(solver, task, tracer, out, (kind, index, query, family))
        if position % len(config.families) == 0:
            with out.step():
                _count(state, next(uncounted), tracer, out, index)
    for query in uncounted:
        with out.step():
            _count(state, query, tracer, out, index)
    out.ops_per_round = len(tasks)
    out.count("lp.solves", solver.solves)
    out.count("lp.assembly_misses", solver.assembly_misses)
    out.count("lp.assembly_hits", solver.assembly_hits)
    out.count("lp.family_slices", solver.family_slices)
    stats = catalog.cache_stats()
    out.count("statistics.lexsorts", stats["lexsorts"])
    out.count("statistics.sequences", stats["sequences"])


def _bound(solver, task, tracer, out: Outcome, key) -> None:
    kind, index, query, family = key
    start = op_clock()
    try:
        with tracer.span("lp", "lp_bound_many"):
            (result,) = lp_bound_many([task], solver=solver, executor="serial")
    except Exception as exc:  # counted, the sweep goes on
        out.errors.append(f"{query.name} {family}: {exc}")
        return
    finally:
        out.timed(kind, op_clock() - start)
    out.outputs[("bound", index, query.name, family)] = (
        result.status, result.log2_bound)


def _count(state: State, query, tracer, out: Outcome, index: int) -> None:
    start = op_clock()
    try:
        with tracer.span("evaluate", "acyclic_count"):
            count = acyclic_count(query, state.db)
    except Exception as exc:
        out.errors.append(f"{query.name} count: {exc}")
        return
    finally:
        out.timed("evaluate", op_clock() - start)
    out.outputs[("count", index, query.name)] = count


def measure(state: State, seconds: float, tracer) -> Outcome:
    out = Outcome()
    rounds = max(1, round(seconds / state.config.round_s))
    for index in range(rounds):
        start = time.perf_counter()
        _round(state, tracer, out, index)
        out.rounds.append(time.perf_counter() - start)
    out.accounted_s = sum(out.rounds)
    return out


def check(state: State, out: Outcome) -> list[str]:
    """Soundness and monotonicity of every round's sweep.

    Each bound must be optimal and ≥ its query's true count, and no
    query's bound may grow as the norm family grows (the families are
    nested, so each adds statistics).  Per query, this implies that the
    geometric mean of bound/truth over the queries never grows either.
    """
    config = state.config
    problems = []
    rounds = {key[1] for key in out.outputs}
    for index in sorted(rounds):
        for qid in config.query_ids:
            name = job_query(qid).name
            truth = out.outputs.get(("count", index, name))
            previous = None
            for family in config.families:
                answer = out.outputs.get(("bound", index, name, family))
                if answer is None or truth is None:
                    problems.append(f"round {index}: {name} {family} missing")
                    continue
                status, log2_bound = answer
                if status != "optimal":
                    problems.append(f"{name} {family}: status {status}")
                    continue
                if truth > 0 and log2_bound < math.log2(truth) - 1e-6:
                    problems.append(
                        f"{name} {family}: bound 2^{log2_bound:.6f} "
                        f"< truth {truth}"
                    )
                if previous is not None and log2_bound > previous + 1e-9:
                    problems.append(
                        f"round {index} {name}: bound grew with the family "
                        f"(2^{previous:.6f} → 2^{log2_bound:.6f} at {family})"
                    )
                previous = log2_bound
    return problems


def measured_pid(state: State) -> str:
    """The process whose peak memory ``peak_rss_mb`` reports."""
    return "self"
