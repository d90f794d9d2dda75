"""Exact output counts for α-acyclic full queries without materialisation.

Figure 1's workload joins up to 14 relations; true output sizes reach well
beyond what can be materialised (the paper notes DuckDB could not even
compute two of them).  For α-acyclic *full* queries the count is
computable by dynamic programming over a join tree (the counting
specialisation of Yannakakis):

1. build a join tree by recording the witness of each GYO ear removal;
2. sweep leaves-to-root: eliminating atom i with separator S = vars(i) ∩
   vars(parent) folds ``agg[s] = Σ_{rows of i matching s} weight_i(row)``
   into the parent's row weights.

Because relations have set semantics, each atom's rows are distinct
assignments to its variables, so ``weight_i(row)`` is exactly the number
of distinct extensions of ``row`` to the variables of i's subtree — and
the root's weight sum is |Q(D)|.  Counts are exact Python integers, so
astronomically large outputs are fine.

The sweep runs in the database's one code space: each separator is
flattened to one ``int64`` key per row, and folded
with ``argsort`` + ``add.reduceat``.  Weights start as ``int64`` arrays
and are promoted to exact Python-int (object dtype) arrays the moment an
a-priori bound says a sum or product *could* leave the ``int64`` range,
so results are exact arbitrary-precision integers.
"""

from __future__ import annotations

import numpy as np

from ..query.query import ConjunctiveQuery
from ..relational import Database
from ..relational.columnar import align_composite_keys, sorted_lookup
from .joins import _atom_table

__all__ = ["acyclic_count", "join_tree"]

#: Promote int64 weight arrays to exact object arrays before any
#: intermediate could reach this bound (sums of products of counts).
_SAFE_INT64 = 1 << 62


def join_tree(query: ConjunctiveQuery) -> list[tuple[int, int | None]]:
    """A join tree as (atom index, parent index) pairs, root parent None.

    The list is a valid elimination order: every atom appears before its
    parent.  Raises ``ValueError`` when the query is not α-acyclic.
    """
    atoms = list(query.atoms)
    alive = set(range(len(atoms)))
    order: list[tuple[int, int | None]] = []
    while len(alive) > 1:
        ear = None
        witness = None
        for i in sorted(alive):
            others = [j for j in alive if j != i]
            shared = atoms[i].variable_set & frozenset().union(
                *(atoms[j].variable_set for j in others)
            )
            for j in others:
                if shared <= atoms[j].variable_set:
                    ear, witness = i, j
                    break
            if ear is not None:
                break
        if ear is None:
            raise ValueError(
                f"query {query.name} is not α-acyclic; "
                "acyclic_count does not apply"
            )
        order.append((ear, witness))
        alive.remove(ear)
    (root,) = alive
    order.append((root, None))
    return order


def acyclic_count(query: ConjunctiveQuery, db: Database) -> int:
    """|Q(D)| for an α-acyclic full conjunctive query, exactly."""
    tree = join_tree(query)
    atoms = list(query.atoms)
    tables = [_atom_table(atom, db) for atom in atoms]
    weights: list[np.ndarray] = [
        np.ones(table.n_rows, dtype=np.int64) for table in tables
    ]
    # exact upper bound on any single weight entry, per atom (Python int,
    # so it never overflows): governs int64 -> object promotion.
    weight_bound = [1] * len(atoms)

    for atom_idx, parent_idx in tree:
        table, w = tables[atom_idx], weights[atom_idx]
        if parent_idx is None:
            if table.n_rows == 0:
                return 0
            if (
                w.dtype == object
                or weight_bound[atom_idx] * table.n_rows >= _SAFE_INT64
            ):
                return int(sum(int(x) for x in w))
            return int(w.sum())
        parent = tables[parent_idx]
        p_pos = {v: i for i, v in enumerate(parent.vars)}
        parent_vars = set(parent.vars)
        separator = [v for v in table.vars if v in parent_vars]
        t_pos = {v: i for i, v in enumerate(table.vars)}

        # parent and child separator keys in one key space
        if not separator:
            p_keys = np.zeros(parent.n_rows, dtype=np.int64)
            c_keys = np.zeros(table.n_rows, dtype=np.int64)
        else:
            p_keys, c_keys = align_composite_keys(
                [parent.codes[p_pos[v]] for v in separator],
                [table.codes[t_pos[v]] for v in separator],
                len(parent.domain),
            )

        # fold: agg[key] = Σ child weights, then parent *= agg[parent key]
        agg_bound = weight_bound[atom_idx] * max(1, len(c_keys))
        product_bound = weight_bound[parent_idx] * agg_bound
        if product_bound >= _SAFE_INT64 and w.dtype != object:
            w = w.astype(object)
        if len(c_keys) == 0:
            weights[parent_idx] = np.zeros(parent.n_rows, dtype=np.int64)
            weight_bound[parent_idx] = 1
            continue
        order = np.argsort(c_keys, kind="stable")
        sorted_keys = c_keys[order]
        run_start = np.empty(len(sorted_keys), dtype=bool)
        run_start[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=run_start[1:])
        starts = np.nonzero(run_start)[0]
        unique_keys = sorted_keys[starts]
        sums = np.add.reduceat(w[order], starts)
        found, positions = sorted_lookup(unique_keys, p_keys)
        gathered = np.where(found, sums[positions], 0)
        parent_w = weights[parent_idx]
        if gathered.dtype == object and parent_w.dtype != object:
            parent_w = parent_w.astype(object)
        elif parent_w.dtype == object and gathered.dtype != object:
            gathered = gathered.astype(object)
        weights[parent_idx] = parent_w * gathered
        weight_bound[parent_idx] = product_bound
    raise AssertionError("unreachable: the join tree always has a root")
