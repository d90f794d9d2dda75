"""Binary hash joins and join-tree evaluation for acyclic queries.

These are the classical substrate algorithms: a binary natural join and a
left-deep evaluation of a full conjunctive query.  The worst-case-optimal
algorithm lives in :mod:`repro.evaluation.wcoj`; this path is kept both as
an independent oracle for true cardinalities in tests and because acyclic
JOB-style queries evaluate faster through it.

The join is a columnar sort-merge over dictionary-encoded columns
(:mod:`repro.relational.columnar`) in one shared code space (a
database's, or :func:`~repro.relational.columnar.unify_domain` over the
two inputs of the bare-input joins): composite keys are matched with
``np.searchsorted`` over a stable-sorted right side, and output rows are
materialized as two gather operations.  Output rows come left-major,
right rows in input order within a key.  :func:`evaluate_left_deep`
keeps the whole left-deep chain in code space, decoding only the final
result.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..query.query import Atom, ConjunctiveQuery
from ..relational import Database, Relation
from ..relational.columnar import (
    ColumnarRelation,
    align_composite_keys,
    encode_rows,
    unify_domain,
)

__all__ = [
    "hash_join",
    "join_relations",
    "evaluate_left_deep",
]


class _ColTable:
    """A variable-labelled intermediate result in code space.

    Every column's codes index the one ``domain`` dictionary (``None``
    for a table without columns).
    """

    __slots__ = ("vars", "codes", "domain", "n_rows")

    def __init__(self, vars, codes, domain, n_rows):
        self.vars = vars
        self.codes = codes
        self.domain = domain
        self.n_rows = n_rows


def _table_of(columnar: ColumnarRelation) -> _ColTable:
    """View a :class:`ColumnarRelation` over one shared dictionary as a
    positional ``_ColTable``."""
    attrs = columnar.attributes
    return _ColTable(
        attrs,
        [columnar.codes(a) for a in attrs],
        columnar.dictionary(attrs[0]) if attrs else None,
        columnar.n_rows,
    )


def _columnar_of(table: _ColTable) -> ColumnarRelation:
    """View a ``_ColTable`` (with distinct vars) as a ColumnarRelation."""
    return ColumnarRelation(
        table.vars,
        dict(zip(table.vars, table.codes)),
        dict.fromkeys(table.vars, table.domain),
        table.n_rows,
    )


def _atom_table_indexed(
    atom: Atom, db: Database
) -> tuple[_ColTable, np.ndarray | None]:
    """The atom's rows over its distinct variables, plus the index of each
    surviving table row in the underlying relation's row order (``None``
    meaning the identity — no row was filtered).

    Straight from the relation's cached columnar twin (no tuple
    round-trip); repeated variables become diagonal selections, which is
    why the row-index array matters — it lets callers (the Yannakakis
    sweeps) map survivors back to full relation rows.
    """
    relation = db[atom.relation]
    col = relation.columnar()
    attrs = relation.attributes
    distinct_vars = tuple(dict.fromkeys(atom.variables))
    first_pos: dict[str, int] = {}
    repeated: dict[str, list[int]] = {}
    for position, var in enumerate(atom.variables):
        first_pos.setdefault(var, position)
        repeated.setdefault(var, []).append(position)
    mask = None
    for positions in repeated.values():
        base = col.codes(attrs[positions[0]])
        for position in positions[1:]:
            eq = col.codes(attrs[position]) == base
            mask = eq if mask is None else (mask & eq)
    if mask is not None:
        keep = np.nonzero(mask)[0]
        codes_list = [col.codes(attrs[first_pos[v]])[keep] for v in distinct_vars]
        n = len(keep)
    else:
        keep = None
        codes_list = [col.codes(attrs[first_pos[v]]) for v in distinct_vars]
        n = col.n_rows
    domain = col.dictionary(attrs[0]) if attrs else None
    return _ColTable(distinct_vars, codes_list, domain, n), keep


def _atom_table(atom: Atom, db: Database) -> _ColTable:
    """The atom's rows over its distinct variables (see above)."""
    return _atom_table_indexed(atom, db)[0]


def _join_tables(left: _ColTable, right: _ColTable) -> _ColTable:
    """Columnar natural join."""
    left_set = frozenset(left.vars)
    shared = [v for v in right.vars if v in left_set]
    right_only = [v for v in right.vars if v not in left_set]
    out_vars = left.vars + tuple(right_only)
    left_pos = {v: i for i, v in enumerate(left.vars)}
    right_pos = {v: i for i, v in enumerate(right.vars)}

    if not shared:
        left_idx = np.repeat(np.arange(left.n_rows), right.n_rows)
        right_idx = np.tile(np.arange(right.n_rows), left.n_rows)
    else:
        left_keys, right_keys = align_composite_keys(
            [left.codes[left_pos[v]] for v in shared],
            [right.codes[right_pos[v]] for v in shared],
            len(left.domain),
        )
        order = np.argsort(right_keys, kind="stable")
        sorted_keys = right_keys[order]
        lo = np.searchsorted(sorted_keys, left_keys, side="left")
        hi = np.searchsorted(sorted_keys, left_keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        left_idx = np.repeat(np.arange(left.n_rows), counts)
        offsets = np.cumsum(counts) - counts
        span = (
            np.arange(total)
            - np.repeat(offsets, counts)
            + np.repeat(lo, counts)
        )
        right_idx = order[span]

    codes_list = [c[left_idx] for c in left.codes]
    for v in right_only:
        codes_list.append(right.codes[right_pos[v]][right_idx])
    domain = left.domain if left.vars else right.domain
    return _ColTable(out_vars, codes_list, domain, len(left_idx))


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def hash_join(
    left_vars: Sequence[str],
    left_rows: list[tuple],
    right_vars: Sequence[str],
    right_rows: list[tuple],
) -> tuple[tuple[str, ...], list[tuple]]:
    """Natural join of two variable-labelled row sets.

    Returns (output variables, output rows); output variables are the left
    variables followed by the right-only variables, and rows come
    left-major with right rows in input order within a key.  Raises
    ``ValueError`` when either side repeats a variable.
    """
    for labels in (left_vars, right_vars):
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate variables in {tuple(labels)!r}")
    # encoded twins, not Relations: the inputs' duplicate rows stay
    left, right = unify_domain(
        [encode_rows(left_vars, left_rows), encode_rows(right_vars, right_rows)]
    )
    joined = _join_tables(_table_of(left), _table_of(right))
    return joined.vars, _columnar_of(joined).decode_rows(joined.vars)


def join_relations(left: Relation, right: Relation, name: str = "") -> Relation:
    """Natural join of two relations on their shared attribute names.

    The engine-level entry point: the join runs entirely in code space
    and the result is returned as a columnar-backed :class:`Relation`
    whose tuple rows materialize lazily — statistics, further joins, and
    ``len()`` never pay for them.  Joining two set-semantics relations
    cannot create duplicate rows, so no deduplication pass is needed.
    """
    twins = unify_domain([left.columnar(), right.columnar()])
    joined = _join_tables(*map(_table_of, twins))
    return Relation._from_columnar(_columnar_of(joined), name=name)


def evaluate_left_deep(
    query: ConjunctiveQuery, db: Database, order: Sequence[int] | None = None
) -> Relation:
    """Evaluate a full conjunctive query by a left-deep chain of joins.

    ``order`` optionally permutes the atoms; by default atoms are joined
    greedily, always picking next an atom sharing a variable with the
    current partial result (falling back to a cartesian product only when
    the query is disconnected).

    The entire chain runs in code space; the result is a columnar-backed
    relation whose rows decode lazily.
    """
    atoms = list(query.atoms)
    if order is not None:
        atoms = [atoms[i] for i in order]
    else:
        remaining = atoms[1:]
        ordered = [atoms[0]]
        bound = set(atoms[0].variable_set)
        while remaining:
            pick = next(
                (a for a in remaining if a.variable_set & bound),
                remaining[0],
            )
            remaining.remove(pick)
            ordered.append(pick)
            bound |= pick.variable_set
        atoms = ordered

    result = _atom_table(atoms[0], db)
    for atom in atoms[1:]:
        result = _join_tables(result, _atom_table(atom, db))
    # a full CQ's output vars are exactly the query's (as a set), so
    # reordering columns keeps rows distinct: wrap without decoding.
    target = query.variables
    position = {v: i for i, v in enumerate(result.vars)}
    columnar = ColumnarRelation(
        target,
        {v: result.codes[position[v]] for v in target},
        dict.fromkeys(target, result.domain),
        result.n_rows,
    )
    return Relation._from_columnar(columnar, name=query.name)
