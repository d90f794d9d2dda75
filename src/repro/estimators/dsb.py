"""The Degree Sequence Bound (DSB) [6] — the Appendix C.3 comparator.

For the single join Q(X,Y,Z) = R(X,Y) ∧ S(Y,Z), with degree sequences
a_1 ≥ a_2 ≥ … (of deg_R(X|Y)) and b_1 ≥ b_2 ≥ … (of deg_S(Z|Y)), the DSB
is the tight bound

    DSB = Σ_i a_i · b_i                                            (49)

pairing the i-th largest degrees (sequences aligned by rank, the shorter
padded with zeros).  The DSB applies to Berge-acyclic queries in general;
we implement the exact two-relation form the paper analyses and a
rank-pairing generalisation for chains of joins (each internal variable
contributes its two facing degree sequences, combined greedily — this is
an upper bound for chains under the DSB's "domination" semantics and
reduces to (49) for a single join).

The subtle point reproduced by :mod:`repro.experiments.dsb_gap`: although
a length-M degree sequence and its first M norms are interconvertible
(Lemma A.1), the DSB can be *asymptotically better* than every ℓp bound,
because norm constraints admit instances whose degree sequences are not
dominated by the original ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.conditionals import atom_columns
from ..core.degree import degree_sequence
from ..query.hypergraph import is_berge_acyclic
from ..query.query import ConjunctiveQuery
from ..relational import Database

__all__ = ["dsb_pair", "dsb_single_join", "dsb_chain"]


def dsb_pair(a: Sequence[float], b: Sequence[float]) -> float:
    """Σ_i a_i·b_i over rank-aligned, non-increasing degree sequences."""
    a_arr = np.sort(np.asarray(a, float))[::-1]
    b_arr = np.sort(np.asarray(b, float))[::-1]
    m = min(a_arr.size, b_arr.size)
    if m == 0:
        return 0.0
    return float(np.dot(a_arr[:m], b_arr[:m]))


def dsb_single_join(
    query: ConjunctiveQuery, db: Database
) -> float:
    """The DSB (49) for a two-atom join sharing exactly one variable.

    Returns the bound in linear space (degree products do not overflow for
    realistic inputs).  Raises ``ValueError`` if the query is not a single
    join with one shared variable.
    """
    if len(query.atoms) != 2:
        raise ValueError("dsb_single_join needs exactly two atoms")
    left, right = query.atoms
    shared = left.variable_set & right.variable_set
    if len(shared) != 1:
        raise ValueError(
            f"atoms must share exactly one variable, share {sorted(shared)}"
        )
    (join_var,) = shared
    sequences = []
    for atom in (left, right):
        relation = db[atom.relation]
        mapping, _ = atom_columns(atom, relation.attributes)
        others = sorted(atom.variable_set - {join_var})
        if others:
            seq = degree_sequence(
                relation, [mapping[v] for v in others], [mapping[join_var]]
            )
        else:
            seq = np.ones(
                relation.distinct_count((mapping[join_var],)), dtype=np.int64
            )
        sequences.append(seq)
    return dsb_pair(sequences[0], sequences[1])


def dsb_chain(query: ConjunctiveQuery, db: Database) -> float:
    """A DSB-style bound for chain queries R_1(X_1,X_2) ∧ … ∧ R_k(X_k,X_{k+1}).

    Processes the chain left to right, maintaining the non-increasing
    sequence of *path counts* per current-endpoint value; each join caps
    rank-wise products exactly as (49) does for one join.  For a two-atom
    chain this equals :func:`dsb_single_join`.  Requires Berge-acyclicity.
    """
    if not is_berge_acyclic(query):
        raise ValueError("the DSB applies to Berge-acyclic queries only")
    atoms = list(query.atoms)
    if any(a.arity != 2 for a in atoms):
        raise ValueError("dsb_chain handles binary atoms only")
    # verify chain shape: atoms[i] shares its second variable with atoms[i+1]
    for first, second in zip(atoms, atoms[1:]):
        if first.variables[1] != second.variables[0]:
            raise ValueError(
                "atoms must form a chain R1(x1,x2), R2(x2,x3), …"
            )
    # counts[r] = number of partial paths ending at the rank-r heaviest value
    first_rel = db[atoms[0].relation]
    counts = np.asarray(
        degree_sequence(
            first_rel,
            [first_rel.attributes[0]],
            [first_rel.attributes[1]],
        ),
        dtype=float,
    )
    for atom in atoms[1:]:
        relation = db[atom.relation]
        out_deg = np.asarray(
            degree_sequence(
                relation, [relation.attributes[1]], [relation.attributes[0]]
            ),
            dtype=float,
        )
        m = min(counts.size, out_deg.size)
        if m == 0:
            return 0.0
        # each of the top-r endpoint groups fans out by at most the rank-r
        # out-degree; the result is again sorted non-increasingly.
        counts = np.sort(counts[:m] * out_deg[:m])[::-1]
    return float(counts.sum())
