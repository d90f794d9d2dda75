"""Yannakakis semijoin reduction for α-acyclic queries.

The classical preprocessing step: two sweeps of semijoins along a join
tree remove every *dangling* tuple — tuples that participate in no output
row.  After reduction, each relation is exactly the projection of the
output onto its atom, which makes the reduced database the natural input
for any evaluator and gives a cheap lower-bound witness for cardinality
estimates (every surviving tuple extends to at least one output row).

The engine keeps one boolean liveness mask per atom and runs every
semijoin as a composite-key membership test: the shared variables' code
columns (one code space per database) are flattened to one ``int64`` key
per row by :func:`~repro.relational.columnar.align_composite_keys` and
matched with one :func:`~repro.relational.columnar.sorted_lookup` — no
tuple is ever materialized; the reduced relations are columnar
row-gathers.  A semijoin against a source with no shared variables keeps
the target exactly when the source still has rows (no cross product is
formed).
"""

from __future__ import annotations

import numpy as np

from ..query.query import ConjunctiveQuery
from ..relational import Database, Relation
from ..relational.columnar import align_composite_keys, sorted_lookup
from .acyclic_count import join_tree
from .joins import _atom_table_indexed

__all__ = ["semijoin_reduce"]


def semijoin_reduce(
    query: ConjunctiveQuery, db: Database, governor=None
) -> Database:
    """The full (up-then-down) Yannakakis reduction of the database.

    Returns a database over the same relation names where every relation
    is restricted to the rows that participate in at least one output
    tuple of ``query``.  Only defined for α-acyclic queries.

    For self-joins (one relation behind several atoms) the surviving rows
    are the union of the per-atom survivors — each kept row participates
    through at least one of its atoms.

    A ``governor`` is checkpointed before every semijoin of both sweeps
    — the reduction's natural block boundary — so deadlines, cancels,
    and memory caps land between steps, never mid-semijoin.
    """
    tree = join_tree(query)  # raises for cyclic queries
    atoms = list(query.atoms)
    indexed = [_atom_table_indexed(atom, db) for atom in atoms]
    tables = [table for table, _ in indexed]
    row_idx = [idx for _, idx in indexed]
    alive = [np.ones(table.n_rows, dtype=bool) for table in tables]

    def semijoin(target_i: int, source_i: int) -> None:
        """alive[target] &= has-partner-in-source."""
        target, source = tables[target_i], tables[source_i]
        t_pos = {v: i for i, v in enumerate(target.vars)}
        source_set = set(source.vars)
        shared = [v for v in target.vars if v in source_set]
        if not shared:
            if not alive[source_i].any():
                alive[target_i][:] = False
            return
        live = np.nonzero(alive[source_i])[0]
        s_pos = {v: i for i, v in enumerate(source.vars)}
        t_keys, s_keys = align_composite_keys(
            [target.codes[t_pos[v]] for v in shared],
            [source.codes[s_pos[v]][live] for v in shared],
            len(target.domain),
        )
        found, _ = sorted_lookup(np.unique(s_keys), t_keys)
        alive[target_i] &= found

    children: dict[int, list[int]] = {i: [] for i, _ in tree}
    # upward sweep: parents lose rows with no partner in each child
    for atom_idx, parent_idx in tree:
        if parent_idx is None:
            root = atom_idx
            continue
        children[parent_idx].append(atom_idx)
        if governor is not None:
            governor.checkpoint()
        semijoin(parent_idx, atom_idx)
    # downward sweep: children lose rows with no partner in their parent
    stack = [root]
    while stack:
        node = stack.pop()
        for child in children[node]:
            if governor is not None:
                governor.checkpoint()
            semijoin(child, node)
            stack.append(child)

    # map survivors back to relation rows, unioned across atoms per relation
    surviving: dict[str, list[np.ndarray]] = {
        atom.relation: [] for atom in atoms
    }
    for i, atom in enumerate(atoms):
        if row_idx[i] is None:  # identity: the atom filtered no rows
            surviving[atom.relation].append(np.nonzero(alive[i])[0])
        else:
            surviving[atom.relation].append(row_idx[i][alive[i]])
    relations: dict[str, Relation] = {}
    for name, index_lists in surviving.items():
        if len(index_lists) == 1:
            merged = index_lists[0]
        else:
            merged = np.unique(np.concatenate(index_lists))
        relations[name] = db[name]._take_rows(merged)
    for name in db:
        if name not in relations:
            relations[name] = db[name]
    return Database(relations)
