#!/usr/bin/env python3
"""Pessimistic cardinality estimation served over the bound service.

The paper's main intended application (Sec. 2.1): given precomputed
ℓp-norm statistics, upper-bound the output of realistic multi-way join
queries.  This example stands up the bound-serving service over the
synthetic IMDB database and answers a handful of the Figure 1 join
templates through it, printing for each the true cardinality, our bound,
the AGM and PANDA baselines (the ``family`` request field restricts the
norm family per request — no extra statistics pass), the textbook
(DuckDB-style) estimate, and the certificate the service returns.

Run:  python examples/cardinality_estimation_job.py
"""

import math

from repro.core import active_lp_mode
from repro.datasets import imdb_database, job_query
from repro.estimators import textbook_estimate
from repro.evaluation import acyclic_count
from repro.service import BoundClient, BoundService, start_server

QUERY_IDS = (1, 3, 7, 17, 28)
PS = tuple(float(p) for p in range(1, 31)) + (math.inf,)


def datalog_text(query):
    """Render a ConjunctiveQuery as the service's datalog request text."""
    head = f"{query.name}({', '.join(query.variables)})"
    body = ", ".join(
        f"{a.relation}({', '.join(a.variables)})" for a in query.atoms
    )
    return f"{head} :- {body}"


def main() -> None:
    db = imdb_database(scale=0.3, seed=7)
    print(f"synthetic IMDB: {db.total_tuples()} tuples in {len(db)} relations")

    service = BoundService(db, ps=PS)
    server = start_server(service)
    print(f"bound service at {server.url} "
          f"(lp mode: {active_lp_mode()})\n")

    with BoundClient(server.url) as client:
        for qid in QUERY_IDS:
            query = job_query(qid)
            text = datalog_text(query)
            true_count = acyclic_count(query, db)
            ours = client.bound(query=text, ps=PS)
            panda = client.bound(query=text, family=(1.0, math.inf))
            agm = client.bound(query=text, family=(1.0,))
            estimate = textbook_estimate(query, db)
            print(f"JOB-like query {qid} ({len(query.atoms)} relations)")
            print(f"  true |Q|          = {true_count:.4g}")
            print(f"  ours              = {ours.bound:.4g}"
                  f"   (ratio {ours.bound / true_count:.3g},"
                  f" norms {ours.norms_used})")
            print(f"  PANDA {{1,∞}}      = {panda.bound:.4g}"
                  f"   (ratio {panda.bound / true_count:.3g})")
            print(f"  AGM {{1}}          = {agm.bound:.4g}"
                  f"   (ratio {agm.bound / true_count:.3g})")
            print(f"  textbook estimate = {estimate:.4g}"
                  f"   (ratio {estimate / true_count:.3g} — underestimates)")
            print(f"  certificate: |Q| ≤ {ours.certificate}\n")
        metrics = client.metrics()
    stats_cache = metrics["statistics_cache"]
    print(f"service answered {metrics['requests']['bound']} bound requests "
          f"over one statistics pass per template "
          f"({stats_cache['hits']} statistics-cache hits)")
    server.shutdown()


if __name__ == "__main__":
    main()
