"""The fractional edge cover LP: the reference for the AGM bound.

``fractional_edge_cover`` solves ``min Σ_j c_j x_j`` subject to
``Σ_{j: v∈e_j} x_j ≥ 1`` for every variable v and ``x ≥ 0`` with scipy's
``linprog``.  With unit weights the optimum is the fractional edge cover
number ρ*; with c_j = log2|R_j| it is the log2 AGM bound, which
``agm_log2`` computes straight from the database.  The library computes
the AGM bound as its ℓp bound LP on cardinality statistics
(``repro.estimators.agm_bound``) and must agree with this one.
"""

import math

import numpy as np
from scipy.optimize import linprog

from repro.query.hypergraph import Hypergraph


def fractional_edge_cover(query, weights=None):
    """Minimum-weight fractional edge cover of a query (or a Hypergraph).

    Returns ``(optimal value, x*)``.
    """
    hypergraph = query if isinstance(query, Hypergraph) else Hypergraph.of_query(query)
    m = len(hypergraph.edges)
    if m == 0:
        return 0.0, np.zeros(0)
    cost = np.ones(m) if weights is None else np.asarray(weights, float)
    nodes = sorted(hypergraph.nodes)
    a_ub = np.zeros((len(nodes), m))
    for i, v in enumerate(nodes):
        for j, e in enumerate(hypergraph.edges):
            if v in e:
                a_ub[i, j] = -1.0  # -Σ x_j ≤ -1
    b_ub = -np.ones(len(nodes))
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"edge cover LP failed: {res.message}")
    return float(res.fun), res.x


def agm_log2(query, db):
    """log2 of the AGM bound via the edge cover LP (−inf on an empty atom).

    Weights are |Π_{vars(atom)}(R)| per atom, on the atom's diagonal when
    it repeats a variable.
    """
    weights = []
    for atom in query.atoms:
        relation = db[atom.relation]
        columns = {}
        for position, var in enumerate(atom.variables):
            columns.setdefault(var, []).append(position)
        rows = {
            tuple(row[ps[0]] for ps in columns.values())
            for row in relation
            if all(len({row[i] for i in ps}) == 1 for ps in columns.values())
        }
        if not rows:
            return -math.inf  # empty relation ⇒ empty output
        weights.append(math.log2(len(rows)))
    value, _ = fractional_edge_cover(query, weights)
    return value
