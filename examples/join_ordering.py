#!/usr/bin/env python3
"""Pessimistic join ordering against the bound-serving service.

The paper's motivation (Sec. 1): optimizers pick plans by estimated
intermediate sizes, and underestimates cause catastrophic plans.  This
example runs the service the way an optimizer would — a long-lived
process answering bound requests over HTTP — and uses the ℓp bound as a
*pessimistic* cost model: for every left-deep join order of a 4-atom
query it posts each intermediate prefix to ``POST /bound``, scores the
plan by its largest intermediate bound, and compares the chosen plan
against the plan the textbook estimator would pick — reporting the
*true* intermediate sizes of both.

Because prefixes recur across orders (``R1 ⋈ R2`` starts many plans),
most of the planner's requests are served from the result memo; the
``/metrics`` summary printed at the end shows the hit rates and warm
latency percentiles.

Run:  python examples/join_ordering.py
"""

import itertools
import math

from repro import Database
from repro.core import active_lp_mode
from repro.datasets import power_law_graph
from repro.estimators import textbook_estimate_log2
from repro.evaluation import acyclic_count
from repro.query.query import Atom, ConjunctiveQuery
from repro.service import BoundClient, BoundService, start_server


def datalog_text(atoms, name="Q"):
    """Render atoms as the datalog text the service's parser accepts."""
    head_vars: dict[str, None] = {}
    for atom in atoms:
        for v in atom.variables:
            head_vars.setdefault(v, None)
    head = f"{name}({', '.join(head_vars)})"
    body = ", ".join(
        f"{a.relation}({', '.join(a.variables)})" for a in atoms
    )
    return f"{head} :- {body}"


def prefix_queries(atoms):
    """The proper connected left-deep prefixes (the *intermediates*)."""
    for k in range(2, len(atoms)):
        yield atoms[:k]


def plan_cost_by_bound(order, client):
    """Score a plan by its largest intermediate's served ℓp bound."""
    worst = 0.0
    for prefix in prefix_queries(order):
        response = client.bound(query=datalog_text(prefix))
        worst = max(worst, response.log2_bound)
    return worst


def plan_cost_by_estimate(order, db):
    worst = -math.inf
    for prefix in prefix_queries(order):
        query = ConjunctiveQuery(prefix, name="prefix")
        worst = max(worst, textbook_estimate_log2(query, db))
    return worst


def true_worst_intermediate(order, db):
    worst = 0
    for prefix in prefix_queries(order):
        query = ConjunctiveQuery(prefix, name="prefix")
        worst = max(worst, acyclic_count(query, db))
    return worst


def main() -> None:
    # a chain query over relations of very different skew
    db = Database(
        {
            "R1": power_law_graph(400, 2500, 1.0, seed=21),  # heavy skew
            "R2": power_law_graph(400, 2000, 0.2, seed=22),  # mild
            "R3": power_law_graph(400, 1500, 0.9, seed=23),  # heavy
            "R4": power_law_graph(400, 1000, 0.1, seed=24),  # near-uniform
        }
    )
    atoms = [
        Atom("R1", ("a", "b")),
        Atom("R2", ("b", "c")),
        Atom("R3", ("c", "d")),
        Atom("R4", ("d", "e")),
    ]
    ps = (1.0, 2.0, 3.0, 4.0, math.inf)

    # the long-lived service an optimizer would call into: statistics
    # and solver caches live across all of the planner's requests
    service = BoundService(db, ps=ps)
    server = start_server(service)
    print(f"bound service at {server.url} "
          f"(lp mode: {active_lp_mode()})\n")

    connected_orders = []
    for perm in itertools.permutations(atoms):
        bound_vars = set(perm[0].variable_set)
        ok = True
        for atom in perm[1:]:
            if not (atom.variable_set & bound_vars):
                ok = False
                break
            bound_vars |= atom.variable_set
        if ok:
            connected_orders.append(list(perm))

    def label(order):
        return " ⋈ ".join(a.relation for a in order)

    with BoundClient(server.url) as client:
        scored = []
        for order in connected_orders:
            scored.append(
                (
                    label(order),
                    plan_cost_by_bound(order, client),
                    plan_cost_by_estimate(order, db),
                    true_worst_intermediate(order, db),
                )
            )
        metrics = client.metrics()
    by_bound = min(scored, key=lambda row: row[1])
    by_estimate = min(scored, key=lambda row: row[2])

    print(f"{len(connected_orders)} connected left-deep orders\n")
    print(f"{'order':24s} {'ℓp bound':>10s} {'estimate':>10s} "
          f"{'true worst intermediate':>24s}")
    for name, bound_cost, est_cost, truth in sorted(
        scored, key=lambda row: row[3]
    ):
        marks = ""
        if name == by_bound[0]:
            marks += "  ← ℓp pick"
        if name == by_estimate[0]:
            marks += "  ← estimator pick"
        print(f"{name:24s} 2^{bound_cost:7.2f} 2^{est_cost:7.2f} "
              f"{truth:>20,}{marks}")

    print(f"\nℓp-bound pick's true worst intermediate : {by_bound[3]:,}")
    print(f"estimator pick's true worst intermediate: {by_estimate[3]:,}")
    full = ConjunctiveQuery(atoms, name="chain")
    print(f"final output (any plan): {acyclic_count(full, db):,} tuples")

    solver = metrics["solver"]
    stats_cache = metrics["statistics_cache"]
    latency = metrics["latency"]["bound"]
    print(f"\nservice answered {metrics['requests']['bound']} bound requests:")
    print(f"  result memo hits      : {solver['result_hits']} "
          f"(solved {solver['solves']} distinct LPs)")
    print(f"  statistics cache      : {stats_cache['hits']} hits / "
          f"{stats_cache['misses']} misses")
    print(f"  warm latency          : p50 {latency['p50_ms']:.3f} ms, "
          f"p99 {latency['p99_ms']:.3f} ms")
    server.shutdown()


if __name__ == "__main__":
    main()
