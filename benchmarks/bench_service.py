"""The bound-serving service's hot paths (see docs/service.md).

Three workloads enter the CI trajectory:

* ``test_bench_service_bound_warm`` — the warm request path an
  optimizer's plan search lives on (statistics cache + result memo hit,
  no LP touched);
* ``test_bench_service_http_round_trip`` — the same request through the
  stdlib HTTP front-end over one keep-alive connection;
* ``test_bench_service_http_contended`` — warm throughput (requests/s)
  at 8 concurrent keep-alive clients, the locking-discipline canary;
* the ``b_swap`` pair — the persistent warm-started HiGHS model vs a
  fresh one-shot model per solve on the plan-search shape that
  motivates it: one LP structure re-solved under many statistics
  vectors.

``test_service_persistent_speedup_guard`` asserts the ≥2× acceptance
bar for the persistent path (and 1e-6 bound agreement).
"""

import math
from dataclasses import replace

import pytest

from repro.core import (
    BoundSolver,
    StatisticsSet,
    collect_statistics,
    forced_lp_mode,
)
from repro.datasets import power_law_graph
from repro.query import parse_query
from repro.relational import Database
from repro.service import BoundClient, BoundRequest, BoundService, start_server

PS = (1.0, 2.0, math.inf)
TRIANGLE = "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)"
WARM_REQUESTS = 200

#: b-vector variants per structure in the swap workload (a plan search
#: re-costs one structure under many hypothesized statistics).
SWAPS = 40


def _service():
    db = Database({"R": power_law_graph(300, 1800, 0.7, seed=9)})
    service = BoundService(db, ps=PS)
    service.precompute([TRIANGLE])
    return service


def _bound_rounds(service, n):
    request = BoundRequest(query=TRIANGLE, ps=PS)
    responses = [service.bound(request) for _ in range(n)]
    assert all(r.cached for r in responses)
    return responses


def test_bench_service_bound_warm(benchmark):
    """The sub-ms warm path: parse cache + statistics cache + memo."""
    service = _service()
    _bound_rounds(service, 1)  # ensure the memo is hot
    responses = benchmark(_bound_rounds, service, WARM_REQUESTS)
    assert responses[0].status == "optimal"


def test_bench_service_http_round_trip(benchmark):
    """The same warm request through HTTP/1.1 keep-alive."""
    service = _service()
    server = start_server(service)
    client = BoundClient(server.url)
    try:
        client.bound(query=TRIANGLE, ps=PS)  # connect + warm

        def rounds(n):
            return [client.bound(query=TRIANGLE, ps=PS) for _ in range(n)]

        responses = benchmark(rounds, WARM_REQUESTS)
        assert all(r.cached for r in responses)
    finally:
        client.close()
        server.shutdown()
        server.server_close()


#: Concurrent keep-alive clients in the contended-throughput entry.
CONTENDED_CLIENTS = 8
CONTENDED_PER_CLIENT = 50


def test_bench_service_http_contended(benchmark):
    """Warm throughput under contention: 8 concurrent keep-alive clients.

    The measured quantity is the wall time for 8 × 50 warm requests
    issued from 8 threads, i.e. requests/s at 8 concurrent clients —
    the locking-discipline regression canary: a lock held across LP or
    JSON work would collapse this entry while leaving the
    single-client round trip untouched.
    """
    from concurrent.futures import ThreadPoolExecutor

    service = _service()
    server = start_server(service)
    clients = [BoundClient(server.url) for _ in range(CONTENDED_CLIENTS)]
    try:
        for client in clients:  # connect + warm every connection
            client.bound(query=TRIANGLE, ps=PS)

        def one_client(client):
            return [
                client.bound(query=TRIANGLE, ps=PS)
                for _ in range(CONTENDED_PER_CLIENT)
            ]

        def contended_sweep():
            with ThreadPoolExecutor(max_workers=CONTENDED_CLIENTS) as pool:
                return list(pool.map(one_client, clients))

        batches = benchmark(contended_sweep)
        assert len(batches) == CONTENDED_CLIENTS
        for batch in batches:
            assert all(r.cached for r in batch)
    finally:
        for client in clients:
            client.close()
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------------
# the b-swap workload: one LP structure, many statistics vectors


def _b_swap_workload():
    """One triangle structure with SWAPS distinct statistics vectors.

    ``dataclasses.replace`` jitters each statistic's ``log2_bound`` —
    the LP's b vector — leaving the structure (conditionals, norms,
    guards) untouched, so a structure-cached solver re-solves the same
    skeleton under new bounds every time.
    """
    query = parse_query(TRIANGLE)
    db = Database({"R": power_law_graph(300, 1800, 0.7, seed=9)})
    base = collect_statistics(query, db, ps=PS)
    variants = []
    for i in range(SWAPS):
        variants.append(
            StatisticsSet(
                replace(s, log2_bound=s.log2_bound * (1.0 + 0.003 * i))
                for s in base
            )
        )
    return query, variants


def _solve_swaps(solver, query, variants):
    return [
        solver.solve(stats, query=query).log2_bound for stats in variants
    ]


def test_bench_lp_b_swap_oneshot(benchmark):
    """The cached one-shot baseline: skeleton cached, a model per solve."""
    query, variants = _b_swap_workload()
    with forced_lp_mode("oneshot"):
        solver = BoundSolver(memoize_results=False)
        bounds = benchmark(_solve_swaps, solver, query, variants)
    assert len(bounds) == SWAPS
    assert solver.cached_assemblies() >= 1


def test_bench_lp_b_swap_persistent(benchmark):
    """The warm path: one HiGHS model, b swapped in place per solve."""
    query, variants = _b_swap_workload()
    with forced_lp_mode("persistent"):
        solver = BoundSolver(memoize_results=False)
        bounds = benchmark(_solve_swaps, solver, query, variants)
    assert len(bounds) == SWAPS
    # one structure: one assembly entry carrying one warm model
    assemblies = solver.cache_stats()["assemblies"]
    assert assemblies["models"] == 1
    assert solver.persistent_resolves >= SWAPS


def test_service_persistent_speedup_guard():
    """Acceptance bar: persistent ≥2× over cached one-shot, 1e-6 agree."""
    import time

    query, variants = _b_swap_workload()

    def run(mode):
        with forced_lp_mode(mode):
            solver = BoundSolver(memoize_results=False)
            _solve_swaps(solver, query, variants)  # warm-up pass
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                bounds = _solve_swaps(solver, query, variants)
                best = min(best, time.perf_counter() - start)
        return bounds, best

    oneshot_bounds, oneshot_time = run("oneshot")
    persistent_bounds, persistent_time = run("persistent")
    for warm, oracle in zip(persistent_bounds, oneshot_bounds):
        assert warm == pytest.approx(oracle, abs=1e-6)
    speedup = oneshot_time / persistent_time
    assert speedup >= 2.0, (
        f"persistent b-swap path only {speedup:.2f}× over one-shot "
        f"({persistent_time * 1e3:.1f} ms vs {oneshot_time * 1e3:.1f} ms)"
    )
