"""The per-part evaluation black box standing in for PANDA [17].

Lemma 2.4 reduces evaluation under ℓp statistics to evaluation under
{1, ∞} statistics on *strongly satisfying* parts, executed by "PANDA's
algorithm" as a black box with runtime Õ(Π_i B_i^{w_i}).

Full PANDA (proof-sequence-driven, with disjunctive datalog rewrites) is
far outside this reproduction's scope; per docs/architecture.md we
substitute the generic worst-case-optimal join of
:mod:`repro.evaluation.wcoj`, and we *meter* the actual work so tests
and benchmarks can verify the Theorem 2.6 budget instead of assuming it.

What the stand-in keeps of PANDA is where its proof sequence starts.
For a statistic on (V|U), PANDA binds U first — h(U) + h(V|U) — and
that is what makes a Lemma 2.5 part cheap: each part is a *slice* of
its partition key, holding at most B^p/d^p distinct U-values of degree
below 2d each, so a search rooted at U touches only the slice.  A
query-only variable order ignores the slice: rooted elsewhere, every
part combination re-intersects a whole unpartitioned relation with the
part's values, and the partitioned run does several times the direct
join's work.  :func:`evaluate_part` therefore picks each part's order
from the part database: the variable with the fewest distinct values
in its smallest column becomes the root, and the rest follow
:func:`~repro.evaluation.wcoj.generic_join`'s default order, kept
connected.
"""

from __future__ import annotations

import math

from ..core.lp_bound import BoundResult
from ..query.query import ConjunctiveQuery
from ..relational import Database, OutputSink
from .wcoj import JoinRun, _default_order, generic_join

__all__ = ["evaluate_part", "theorem26_log2_budget"]

#: Names the rule :func:`_part_order` follows.  Per-part row order
#: depends on it, so checkpoints record it and a run directory written
#: under another rule is refused on resume; change it with the rule.
PART_ORDER = "fan-out-root"


def _part_order(query: ConjunctiveQuery, db: Database) -> tuple[str, ...]:
    """Smallest-fan-out root, then the default order kept connected.

    A variable's fan-out is the smallest distinct count of its column
    over the relations of the atoms containing it; the root is the
    variable of least fan-out (ties by the default order).  The other
    variables follow in the default order, each step taking the first
    one that shares an atom with a variable already bound (the first
    overall when none does), so every prefix of the order is connected.
    """
    default = _default_order(query)
    if not default:
        return default
    fan_out: dict[str, int] = {}
    neighbours: dict[str, set[str]] = {v: set() for v in default}
    for atom in query.atoms:
        relation = db[atom.relation]
        for position, var in enumerate(atom.variables):
            count = relation.distinct_count((relation.attributes[position],))
            fan_out[var] = min(fan_out.get(var, count), count)
            neighbours[var] |= atom.variable_set
    root = min(default, key=fan_out.__getitem__)
    order = [root]
    bound = {root}
    remaining = [v for v in default if v != root]
    while remaining:
        nxt = next(
            (v for v in remaining if neighbours[v] & bound), remaining[0]
        )
        order.append(nxt)
        bound.add(nxt)
        remaining.remove(nxt)
    return tuple(order)


def evaluate_part(
    query: ConjunctiveQuery,
    db_part: Database,
    frontier_block: int | None = None,
    sink: OutputSink | None = None,
    governor=None,
) -> JoinRun:
    """Evaluate the query on one strongly-satisfying database part.

    The Generic Join runs in the part's own variable order: rooted at
    the variable with the fewest distinct values in the part — the
    partition key of a Lemma 2.5 slice — and continued along connected
    prefixes of the default order (see :func:`_part_order`).  The order
    depends only on the part's data, so output rows, their order, and
    the meter are the same on every run of the same part.

    ``frontier_block`` caps the WCOJ's live frontier, ``sink`` routes
    the part's output rows, and ``governor`` threads resource
    governance down to the engine's block boundaries (see
    :func:`repro.evaluation.wcoj.generic_join`); output rows, their
    order, and the meter are identical for every setting.
    """
    return generic_join(
        query,
        db_part,
        order=_part_order(query, db_part),
        frontier_block=frontier_block,
        sink=sink,
        governor=governor,
    )


def theorem26_log2_budget(result: BoundResult, tol: float = 1e-9) -> float:
    """log2 of Theorem 2.6's runtime budget c · Π_i B_i^{w_i}.

    ``result`` must be an optimal LP bound whose dual weights w_i define
    the witness inequality; c = Π_i ⌈2^{p_i}⌉ over the finite-p statistics
    actually used (ℓ∞ and ℓ1 statistics need no bucketing).  Polylog
    factors are not included — callers compare the *metered node count*
    against 2^budget · polylog(N).
    """
    if result.dual_weights is None:
        raise ValueError(f"bound has no certificate (status {result.status})")
    log2_c = 0.0
    for stat, weight in result.used_statistics(tol):
        if weight <= tol or stat.p == math.inf or stat.p == 1.0:
            continue
        log2_c += math.log2(math.ceil(2.0 ** stat.p))
    return result.log2_bound + log2_c
