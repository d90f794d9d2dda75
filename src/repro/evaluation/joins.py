"""The atom view the evaluators read: an atom's rows in code space.

:func:`repro.evaluation.wcoj.generic_join`,
:func:`repro.evaluation.acyclic_count.acyclic_count` and
:func:`repro.evaluation.yannakakis.semijoin_reduce` see each atom as a
:class:`_ColTable`: one code column per distinct variable, in the
database's one code space.  Which column a variable reads, and which
rows a repeated variable keeps, is
:func:`repro.core.conditionals.atom_columns` and
:func:`repro.core.conditionals.diagonal_rows`.
"""

from __future__ import annotations

import numpy as np

from ..core.conditionals import atom_columns, diagonal_rows
from ..query.query import Atom
from ..relational import Database


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
    mapping, diagonal = atom_columns(atom, relation.attributes)
    codes = [col.codes(a) for a in mapping.values()]
    keep = None
    if diagonal:
        keep = diagonal_rows(relation, diagonal)
        codes = [c[keep] for c in codes]
    attrs = relation.attributes
    domain = col.dictionary(attrs[0]) if attrs else None
    n_rows = col.n_rows if keep is None else len(keep)
    return _ColTable(tuple(mapping), codes, domain, n_rows), keep


def _atom_table(atom: Atom, db: Database) -> _ColTable:
    """The atom's rows over its distinct variables (see above)."""
    return _atom_table_indexed(atom, db)[0]
