"""service-mix: seeded optimizer traffic against a real ``repro serve``.

The server is the CLI's own subprocess over edge tables written as CSV,
warmed on a handful of triangle templates.  A closed loop of keep-alive
``BoundClient`` connections (an optimizer waits for each reply) sends a
seeded mix:

* warm ``/bound`` on a warmed template (statistics and result cached);
* cold ``/bound``: a first-seen triangle over other tables, which misses
  the statistics cache and re-solves an already-assembled LP;
* family-restricted ``/bound`` ({1, ∞}) on a warmed template;
* ``/evaluate`` of a triangle over any three tables, under a memory
  budget and deadline.

Every answer is checked afterwards against an in-process one-shot
``lp_bound`` (1e-6) or a ``generic_join`` count.
"""

from __future__ import annotations

import csv
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import StatisticsCatalog, lp_bound
from repro.datasets import power_law_graph
from repro.evaluation import generic_join
from repro.query import parse_query
from repro.relational import CountSink, Database
from repro.service import BoundClient, BoundRequest, EvaluateRequest

from .common import PINNED_MODES, Outcome
from .tracer import NULL

#: the clock of set-up (which waits for the server) and of client round
#: trips: wall time
CLOCK = time.perf_counter
NAME = "service-mix"
PS = (1.0, 2.0, math.inf)
FAMILY = (1.0, math.inf)


@dataclass(frozen=True)
class Config:
    tables: int = 48
    nodes: int = 400
    edges: int = 2400
    templates: int = 8
    #: cumulative shares of warm, cold, family; the rest is /evaluate
    mix: tuple[float, float, float] = (0.90, 0.98, 0.99)
    clients: int = 2
    #: requests per round (about 20 of them ``/evaluate``, enough for a
    #: per-round median); ``wall_s`` is the median round time
    round_requests: int = 2000
    #: the server's total cache budget: cold texts evict each other while
    #: the hot templates stay, so memory plateaus however long the run
    cache_budget: str = "4M"
    memory_budget: str = "1G:2G"
    deadline_seconds: float = 30.0
    setups: int = 3
    warmup_s: float = 3.0
    start_timeout: float = 60.0


FULL = Config()
SMOKE = Config(tables=12, nodes=60, edges=240, templates=2, round_requests=50,
               setups=1, warmup_s=0.2)


def _triangle(a: int, b: int, c: int) -> str:
    # the generator stores each edge once, as (low, high): the cyclic
    # orientation R(z,x) would never close, so the third atom is R(x,z)
    return f"Q(x,y,z) :- R{a}(x,y), R{b}(y,z), R{c}(x,z)"


def _templates(config: Config) -> list[str]:
    # the first ``templates`` tables, taken three at a time cyclically
    n = config.templates
    return [_triangle(i, (i + 1) % n, (i + 2) % n) for i in range(n)]


@dataclass
class State:
    config: Config
    seed: int
    db: Database
    server: subprocess.Popen
    url: str
    cold: _ColdTexts
    phases: int = 0
    #: the oracle's answers and the catalog its statistics come from
    oracle: dict = field(default_factory=dict)
    catalog: StatisticsCatalog | None = None

    def close(self) -> None:
        _stop(self.server)


def _tables(seed: int, config: Config) -> dict[str, object]:
    return {
        f"R{i}": power_law_graph(
            config.nodes, config.edges, 0.6, seed * 1000 + i, symmetric=False
        )
        for i in range(config.tables)
    }


def _write_csvs(tables: dict, directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    specs = []
    for name, relation in tables.items():
        path = directory / f"{name}.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(relation.attributes)
            writer.writerows(relation)
        specs.append(f"{name}={path}")
    return specs


def _start(specs: list[str], config: Config, root: Path) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ, **PINNED_MODES)
    env["PYTHONPATH"] = str(root / "src")
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--lp", PINNED_MODES["REPRO_LP"], "--norms", "1,2,inf",
               "--cache-budget", config.cache_budget]
    for spec in specs:
        command += ["--table", spec]
    for text in _templates(config):
        command += ["--warm", text]
    server = subprocess.Popen(
        command, stderr=subprocess.PIPE, stdout=subprocess.DEVNULL,
        text=True, env=env, cwd=root,
    )
    deadline = time.monotonic() + config.start_timeout
    url = None
    lines = []
    try:
        for line in server.stderr:
            lines.append(line)
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                url = match.group(1)
                break
            if time.monotonic() > deadline:
                break
        if url is None:
            raise RuntimeError("server did not start: " + "".join(lines[-5:]))
        # keep draining stderr so the server never blocks on a full pipe
        server.drain = threading.Thread(target=server.stderr.read, daemon=True)
        server.drain.start()
        with BoundClient(url) as client:
            client.healthz()
    except BaseException:
        _stop(server)
        raise
    return server, url


def _stop(server: subprocess.Popen) -> None:
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=10)
    drain = getattr(server, "drain", None)
    if drain is not None:
        drain.join(timeout=10)  # ends at the exited server's EOF
    server.stderr.close()


def setup(seed: int, config: Config, workdir: Path) -> State:
    root = Path(__file__).resolve().parent.parent
    tables = _tables(seed, config)
    specs = _write_csvs(tables, workdir / "tables")
    server, url = _start(specs, config, root)
    return State(config, seed, Database(tables), server, url,
                 _ColdTexts(config, seed))


# ----------------------------------------------------------------------
# the closed loop


class _ColdTexts:
    """First-seen triangles over the non-template tables, shared by every
    client and phase of a run, so no text is ever sent twice."""

    def __init__(self, config: Config, seed: int) -> None:
        pool = range(config.templates, config.tables)
        triples = [(a, b, c) for a in pool for b in pool for c in pool
                   if len({a, b, c}) == 3]
        random.Random(f"{seed}-cold").shuffle(triples)
        self._texts = iter([_triangle(*triple) for triple in triples])
        self._lock = threading.Lock()

    def next(self) -> str | None:
        with self._lock:
            return next(self._texts, None)


def _client_loop(state: State, client_index: int, phase: int, stop_at: float,
                 tracer, lock: threading.Lock, records: list, crashes: list):
    local: list = []
    try:
        _requests(state, client_index, phase, stop_at, tracer, local)
    except BaseException as exc:
        # a request's own failure is recorded in the loop; this is the
        # client itself dying (connecting, say): the run must not pass
        with lock:
            crashes.append(f"client {client_index}: {type(exc).__name__}: {exc}")
    finally:
        # whatever the thread managed is counted, even if it died
        with lock:
            records.extend(local)


def _requests(state: State, client_index: int, phase: int, stop_at: float,
              tracer, local: list):
    config = state.config
    rng = random.Random(f"{state.seed}-{phase}-{client_index}")
    templates = _templates(config)
    with BoundClient(state.url) as client:
        while time.perf_counter() < stop_at:
            trace_id = client_index * 10**9 + len(local)
            draw = rng.random()
            template = rng.choice(templates)
            if draw < config.mix[0]:
                kind, request = "bound", BoundRequest(query=template, ps=PS)
            elif draw < config.mix[1]:
                text = state.cold.next()
                if text is None:
                    break
                kind, request = "cold_bound", BoundRequest(query=text, ps=PS)
            elif draw < config.mix[2]:
                kind = "bound"
                request = BoundRequest(query=template, ps=PS, family=FAMILY)
            else:
                # a triangle over any three tables: the median then
                # averages over many join shapes, not the few templates
                kind = "evaluate"
                request = EvaluateRequest(
                    query=_triangle(*rng.sample(range(config.tables), 3)),
                    memory_budget=config.memory_budget,
                    deadline_seconds=config.deadline_seconds,
                )
            endpoint = "/evaluate" if kind == "evaluate" else "/bound"
            start = time.perf_counter()
            try:
                with tracer.span("http", endpoint, trace_id) as span:
                    if kind == "evaluate":
                        response = client.evaluate(request)
                    else:
                        response = client.bound(request)
                error = None
            except Exception as exc:  # counted as failed, the loop goes on
                response, error = None, f"{endpoint}: {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if response is not None and span is not None:
                tracer.child(
                    span, "evaluate" if kind == "evaluate" else "service",
                    endpoint, response.elapsed_ms / 1e3,
                )
            local.append((kind, request, response, error, start, end))


def _drive(state: State, seconds: float, tracer) -> tuple[list, float, float]:
    """Run the closed loop for ``seconds``; returns the request records
    (sorted by completion), the loop's start time and its length."""
    phase = state.phases
    state.phases += 1
    records: list = []
    crashes: list = []
    lock = threading.Lock()
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(state, k, phase, start + seconds, tracer, lock, records,
                  crashes),
        )
        for k in range(state.config.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise RuntimeError("; ".join(crashes))
    records.sort(key=lambda record: record[5])
    return records, start, time.perf_counter() - start


def _record_answers(out: Outcome, records: list) -> None:
    for kind, request, response, error, _, _ in records:
        if error is not None:
            out.errors.append(error)
            continue
        key = (kind if kind == "evaluate" else "bound", request.query,
               getattr(request, "family", None))
        out.outputs.setdefault(key, set()).add(
            response.count if kind == "evaluate" else response.log2_bound
        )


def measure(state: State, seconds: float, tracer) -> Outcome:
    config = state.config
    out = Outcome()
    # the first seconds of traffic compute every table's degree
    # sequences; measure the steady state after them (answers still
    # checked)
    warmup, _, _ = _drive(state, config.warmup_s, NULL)
    _record_answers(out, warmup)
    out.attempted += len(warmup)
    with BoundClient(state.url) as client:
        metrics_start = time.perf_counter()
        with tracer.span("http", "/metrics"):
            before = client.metrics()
        metrics_s = time.perf_counter() - metrics_start
        records, start, window = _drive(state, seconds, tracer)
        metrics_start = time.perf_counter()
        with tracer.span("http", "/metrics"):
            after = client.metrics()
        metrics_s += time.perf_counter() - metrics_start

    previous = start
    for k in range(config.round_requests - 1, len(records), config.round_requests):
        out.rounds.append(records[k][5] - previous)
        previous = records[k][5]
    if not out.rounds:  # a run shorter than one round still reports one
        out.rounds.append(window)
    out.ops_per_round = min(config.round_requests, len(records))
    _record_answers(out, records)
    overhead, server_bound = [], []
    for position, (kind, _, response, _, began, ended) in enumerate(records):
        # requests past the last full round count towards that round
        out.timed(kind, ended - began,
                  min(position // config.round_requests, len(out.rounds) - 1))
        if response is None:
            continue
        overhead.append((ended - began) - response.elapsed_ms / 1e3)
        if kind == "evaluate":
            out.count("evaluate.nodes_visited", response.nodes_visited)
            out.count("evaluate.output_rows", response.count)
            out.count("service.degradations", len(response.degradations))
            out.latency.setdefault("server_evaluate", []).append(
                response.elapsed_ms / 1e3)
        else:
            server_bound.append(response.elapsed_ms / 1e3)
    out.latency["http_overhead"] = overhead
    out.latency["server_bound"] = server_bound
    _metric_deltas(out, before, after)
    # every client thread is busy for the whole window; the /metrics
    # reads bracket it on the main thread
    out.accounted_s = window * config.clients + metrics_s
    return out


def _metric_deltas(out: Outcome, before: dict, after: dict) -> None:
    def delta(*path):
        a, b = before, after
        for part in path:
            a, b = a.get(part, 0), b.get(part, 0)
        return (b or 0) - (a or 0)

    for name in ("solves", "assembly_misses", "assembly_hits", "result_hits"):
        out.count(f"lp.{name}", delta("solver", name))
    out.count("statistics.lexsorts", delta("catalog", "lexsorts"))
    out.count("statistics.sequences", delta("catalog", "sequences"))
    out.count("service.statistics_hits", delta("statistics_cache", "hits"))
    out.count("service.statistics_misses", delta("statistics_cache", "misses"))
    out.count("service.cache_evictions", sum(
        delta("caches", layer, "evictions")
        for layer in ("queries", "statistics", "solver_results",
                      "solver_assemblies", "solver_models")
    ))
    out.count("service.admission_rejected",
              delta("admission", "rejected_queue_full")
              + delta("admission", "rejected_timeout"))
    out.count("service.admission_peak_queue",
              after.get("admission", {}).get("peak_queue_depth", 0))


# ----------------------------------------------------------------------
# the oracle


def _oracle(state: State, key):
    if key not in state.oracle:
        kind, text, family = key
        query = parse_query(text)
        if kind == "evaluate":
            run = generic_join(query, state.db, sink=CountSink())
            state.oracle[key] = run.count
        else:
            # the catalog's statistics are bit-identical to
            # collect_statistics; it only shares degree sequences
            if state.catalog is None:
                state.catalog = StatisticsCatalog(state.db)
            stats = state.catalog.statistics_for(query, ps=PS)
            if family is not None:
                stats = stats.restrict_ps(family)
            state.oracle[key] = lp_bound(stats, query=query).log2_bound
    return state.oracle[key]


def check(state: State, out: Outcome) -> list[str]:
    """Every distinct answer equals the in-process oracle's."""
    problems = []
    for key, answers in out.outputs.items():
        expected = _oracle(state, key)
        for answer in answers:
            if key[0] == "evaluate":
                ok = answer == expected
            else:
                ok = answer == expected or abs(answer - expected) <= 1e-6
            if not ok:
                problems.append(f"{key[1]} {key[2]}: {answer} != {expected}")
    return problems


def measured_pid(state: State) -> int:
    """The process whose peak memory ``peak_rss_mb`` reports: the server."""
    return state.server.pid
