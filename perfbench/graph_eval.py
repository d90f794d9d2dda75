"""graph-eval: Theorem 2.6 evaluation within the bound on SNAP stand-ins.

Every job is what a caller that evaluates a query pays: parse it, make
sure its relations are encoded, plan it (collect its statistics and
solve its bound on a fresh ``BoundSolver``), then evaluate it into its
sink (each ``evaluate_part`` or ``generic_join`` call is one timed
evaluation).  The planning is the job's bound: statistics plus solve is
a cold bound, the solve alone (statistics at hand) a warm one.  The jobs
of one round:

* the Lemma 2.5 partitioned triangle on the soc-Epinions stand-in into a
  ``SpillSink`` (a sink that writes) and on the twitter stand-in into a
  ``CountSink`` (one that does not);
* direct ``generic_join`` triangle and Loomis–Whitney counts on
  soc-Epinions;
* the partitioned triangle on a string-keyed copy of ca-GrQc, whose
  ``columnar()`` is ``None``: every layer takes its tuple fallback;
* the closed star at fan-out 1024 into a ``CountSink`` with
  ``frontier_block=64`` (frontier-slicing overhead).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import BoundSolver, StatisticsCatalog
from repro.datasets import power_law_graph, star_database
from repro.datasets.snap import SNAP_SPECS
from repro.evaluation import evaluate_part, generic_join, plan_partitioned_evaluation
from repro.query import parse_query
from repro.relational import CountSink, Database, Relation, SpillSink

from .common import Outcome, op_clock
from .tracer import traced_sink

#: the clock of set-up and per-operation times (both run on one thread)
CLOCK = op_clock
NAME = "graph-eval"
PS = (1.0, 2.0, math.inf)
TRIANGLE = "triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)"
LOOMIS_WHITNEY = "lw(x,y,z) :- R(x,y), R(y,z), R(x,z)"
#: ``star_query(2)`` as text, so every job goes through the parser
STAR = "star2(h,x1,x2,z) :- R1(h,x1), R2(h,x2), T1(x1,z), T2(x2,z)"
_SPECS = {spec.name: spec for spec in SNAP_SPECS}


@dataclass(frozen=True)
class Config:
    #: SNAP stand-in sizes are divided by this (1 = the SNAP specs)
    shrink: int = 1
    star_fan_out: int = 1024
    star_block: int = 64
    setups: int = 5
    #: nominal seconds per round; a run measures round(seconds / this)
    #: rounds (at least one), so both sides of a comparison do equal work
    round_s: float = 4.0


FULL = Config()
SMOKE = Config(shrink=20, star_fan_out=64, star_block=16, setups=1,
               round_s=1.0)


@dataclass(frozen=True)
class Job:
    label: str
    dataset: str
    query: str
    partitioned: bool
    sink: str  # "spill" or "count"
    frontier_block: int | None = None


def jobs(config: Config) -> tuple[Job, ...]:
    return (
        Job("triangle-spill/soc-Epinions", "soc-Epinions", TRIANGLE, True, "spill"),
        Job("triangle-count/twitter", "twitter", TRIANGLE, True, "count"),
        Job("triangle-direct/soc-Epinions", "soc-Epinions", TRIANGLE, False, "count"),
        Job("lw-direct/soc-Epinions", "soc-Epinions", LOOMIS_WHITNEY, False, "count"),
        Job("triangle-count/ca-GrQc-str", "ca-GrQc-str", TRIANGLE, True, "count"),
        Job("star-count/fan-out", "star", STAR, False, "count",
            config.star_block),
    )


@dataclass
class State:
    dbs: dict[str, Database]
    config: Config
    workdir: Path
    encode_s: float = 0.0
    truths: dict = field(default_factory=dict)

    def close(self) -> None:
        pass


def _graph(name: str, seed: int, shrink: int) -> Relation:
    spec = _SPECS[name]
    return power_law_graph(
        max(8, spec.num_nodes // shrink), max(16, spec.num_edges // shrink),
        spec.exponent, spec.seed + seed,
    )


def setup(seed: int, config: Config, workdir: Path) -> State:
    dbs = {
        name: Database({"R": _graph(name, seed, config.shrink)})
        for name in ("soc-Epinions", "twitter", "ca-GrQc")
    }
    # the same edges with every value a string: not int64-encodable
    grqc = dbs["ca-GrQc"]["R"]
    dbs["ca-GrQc-str"] = Database({
        "R": Relation(("x", "y"), [(f"v{x}", f"v{y}") for x, y in grqc])
    })
    dbs["star"] = star_database(config.star_fan_out)
    start = CLOCK()
    for db in dbs.values():
        for relation in db.relations():
            relation.columnar()
    return State(dbs, config, workdir, CLOCK() - start)


def _plan(db: Database, query, tracer, out: Outcome):
    """Collect the query's statistics and solve its bound: one cold
    bound sample (both) and one warm (the solve alone)."""
    catalog = StatisticsCatalog(db)
    solver = BoundSolver()
    start = op_clock()
    with tracer.span("statistics", "StatisticsCatalog.precompute"):
        (stats,) = catalog.precompute([query], ps=PS)
    solving = op_clock()
    with tracer.span("lp", "BoundSolver.solve"):
        bound = solver.solve(stats, query=query)
    end = op_clock()
    out.timed("cold_bound", end - start)
    out.sample("bound", end - solving)
    for counter in ("solves", "assembly_misses", "assembly_hits"):
        out.count(f"lp.{counter}", getattr(solver, counter))
    catalog_stats = catalog.cache_stats()
    out.count("statistics.lexsorts", catalog_stats["lexsorts"])
    out.count("statistics.sequences", catalog_stats["sequences"])
    return bound


def _run_job(state, job: Job, tracer, out: Outcome, index: int, kept: list):
    db = state.dbs[job.dataset]
    with tracer.span("parse", "parse_query"):
        query = parse_query(job.query)
    with tracer.span("encode", "Relation.columnar"):
        for relation in db.relations():
            relation.columnar()
    bound = _plan(db, query, tracer, out)
    out.outputs[("bound", index, job.label)] = (bound.status, bound.log2_bound)

    if job.sink == "spill":
        sink = SpillSink(state.workdir / f"spill-{index}-{len(kept)}")
    else:
        sink = CountSink()
    sink = traced_sink(sink, tracer)
    nodes = parts = 0
    if job.partitioned:
        with tracer.span("partition", "plan_partitioned_evaluation"):
            plan = plan_partitioned_evaluation(query, db, bound, max_parts=20000)
        sink.open(plan.rewritten.variables)
        for _, relations in plan.combinations():
            start = op_clock()
            with tracer.span("evaluate", "evaluate_part"):
                run = evaluate_part(plan.rewritten, Database(relations), sink=sink)
            out.timed("evaluate", op_clock() - start)
            nodes += run.nodes_visited
        parts = plan.n_combinations
    else:
        start = op_clock()
        with tracer.span("evaluate", "generic_join"):
            run = generic_join(
                query, db, frontier_block=job.frontier_block, sink=sink
            )
        out.timed("evaluate", op_clock() - start)
        nodes = run.nodes_visited
    if isinstance(sink, SpillSink):
        sink.flush()
    out.outputs[("count", index, job.label)] = (sink.n_rows, nodes)
    out.count("partition.parts", parts)
    out.count("evaluate.nodes_visited", nodes)
    out.count("evaluate.output_rows", sink.n_rows)
    kept.append((index, job, sink))


def measure(state: State, seconds: float, tracer) -> Outcome:
    out = Outcome(ops_per_round=len(jobs(state.config)))
    rounds = max(1, round(seconds / state.config.round_s))
    for index in range(rounds):
        kept: list = []
        out.steps.append([])
        start = time.perf_counter()
        for job in jobs(state.config):
            try:
                with out.step():
                    _run_job(state, job, tracer, out, index, kept)
            except Exception as exc:  # counted, the round goes on
                out.errors.append(f"{job.label}: {type(exc).__name__}: {exc}")
        out.rounds.append(time.perf_counter() - start)
        # outside the timed window: read spilled output back, then free it
        for item in kept:
            _verify_spill(state, out, item)
    out.accounted_s = sum(out.rounds)
    return out


def _rows_digest(rows: np.ndarray) -> str:
    """Order-independent digest of an int64 row array."""
    rows = rows.reshape(len(rows), -1)
    ordered = rows[np.lexsort(rows.T[::-1])] if len(rows) else rows
    return hashlib.sha256(np.ascontiguousarray(ordered).tobytes()).hexdigest()


def _direct(state: State, dataset: str, text: str) -> tuple[int, str]:
    """The oracle: a direct, materialized ``generic_join`` — its count
    and its rows' digest (memoized)."""
    key = (dataset, text)
    if key not in state.truths:
        run = generic_join(parse_query(text), state.dbs[dataset])
        rows = np.array(list(run.output), dtype=np.int64)
        state.truths[key] = (len(run.output), _rows_digest(rows))
    return state.truths[key]


def _verify_spill(state: State, out: Outcome, item) -> None:
    index, job, sink = item
    if not isinstance(sink, SpillSink):
        return
    try:
        segments = sink.store.segments()
        out.count("sink.bytes_written", sum(p.stat().st_size for p in segments))
        out.count("sink.segments", len(segments))
        out.count("sink.cells", sink.n_rows * len(sink.variables))
        chunks = list(sink.store.iter_chunks())
        rows = np.column_stack([
            np.concatenate([chunk[i] for chunk in chunks]).astype(np.int64)
            for i in range(len(sink.variables))
        ]) if chunks else np.empty((0, len(sink.variables)), dtype=np.int64)
        # a digest, not the rows: the oracle's copy must not count
        # towards the workload's peak memory
        out.outputs[("spilled", index, job.label)] = _rows_digest(rows)
    finally:
        sink.close()


def check(state: State, out: Outcome) -> list[str]:
    """Partitioned, direct and re-read spilled answers agree.

    The direct materialized ``generic_join`` is the oracle for each
    dataset; the string-keyed copy must count what the int-keyed graph
    counts, the star must close exactly ``fan_out`` times, and every
    bound must be sound.
    """
    problems = []
    fan_out = state.config.star_fan_out
    for key, value in sorted(out.outputs.items(), key=repr):
        kind, index, label = key
        job = next(j for j in jobs(state.config) if j.label == label)
        if kind == "count":
            count, nodes = value
            if job.dataset == "star":
                expected, expected_nodes = fan_out, (fan_out + 1) ** 2
                if nodes != expected_nodes:
                    problems.append(f"{label}: {nodes} nodes, expected {expected_nodes}")
            else:
                dataset = "ca-GrQc" if job.dataset == "ca-GrQc-str" else job.dataset
                expected, _ = _direct(state, dataset, job.query)
            if count != expected:
                problems.append(f"round {index} {label}: {count} rows, expected {expected}")
        elif kind == "spilled":
            if value != _direct(state, job.dataset, job.query)[1]:
                problems.append(f"round {index} {label}: spilled rows differ")
        elif kind == "bound":
            status, log2_bound = value
            count = out.outputs.get(("count", index, label), (0, 0))[0]
            if status != "optimal":
                problems.append(f"{label}: bound status {status}")
            elif count and log2_bound < math.log2(count) - 1e-6:
                problems.append(f"{label}: bound 2^{log2_bound:.4f} < {count}")
    return problems


def measured_pid(state: State) -> str:
    """The process whose peak memory ``peak_rss_mb`` reports."""
    return "self"

