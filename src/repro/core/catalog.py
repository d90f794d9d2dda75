"""A precomputed-statistics catalog — the system-facing interface.

The paper's standing assumption (Sec. 1, Sec. 2.1) is that ℓp-norms are
*precomputed* and merely looked up at estimation time; computing a degree
sequence costs O(N log N) once, after which every norm is O(length).
:class:`StatisticsCatalog` realises that split: it caches degree sequences
per (relation, conditional, diagonal) and their norms, so a workload of
many queries over one database pays each extraction once.

This module is the one place that knows the statistics family
(:func:`_plan`).  :meth:`StatisticsCatalog.precompute` plans a whole
workload, extracts each missing sequence once
(:func:`repro.core.degree.degree_sequence`), and computes all of a
sequence's requested norms in one vectorized batch;
:meth:`~StatisticsCatalog.statistics_for` and :func:`collect_statistics`
are its one-query forms.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Collection, Sequence

import numpy as np

from ..query.query import Atom, ConjunctiveQuery
from ..relational import Database
from .conditionals import (
    AbstractStatistic,
    ConcreteStatistic,
    Conditional,
    StatisticsSet,
    atom_columns,
    select_diagonal,
)
from .degree import degree_sequence
from .norms import log2_norms

__all__ = ["StatisticsCatalog", "collect_statistics"]

#: A degree sequence: relation name, counted columns V, grouping columns
#: U (both sorted — the sequence does not depend on column order), and
#: the guard's diagonal (:func:`repro.core.conditionals.atom_columns`).
_SeqKey = tuple[str, tuple[str, ...], tuple[str, ...], tuple[tuple[str, ...], ...]]

#: One planned statistic: what it asserts, its guard, and the sequence
#: whose norm is its bound.
_Planned = tuple[AbstractStatistic, Atom, _SeqKey]


def _plan(
    query: ConjunctiveQuery,
    db: Database,
    ps: Sequence[float],
    join_variables_only: bool,
    max_u_size: int,
) -> list[_Planned]:
    """The standard statistics family of one query, in collection order.

    Per atom R(Z): the cardinality (Z | ∅) at p = 1; then, for every join
    variable A ∈ Z, the distinct count (A | ∅) at p = 1 and (Z − A | A)
    at every p in ``ps``; with ``max_u_size=2``, also (Z − {A, B} | {A, B})
    at every p for each pair of join variables of the atom.  A variable is
    a join variable when ≥ 2 atoms share it, or always when
    ``join_variables_only`` is false.
    """
    if max_u_size not in (1, 2):
        raise ValueError(f"max_u_size must be 1 or 2, got {max_u_size}")
    if join_variables_only:
        counts = Counter(v for atom in query.atoms for v in atom.variable_set)
        join_vars = {v for v, c in counts.items() if c >= 2}
    else:
        join_vars = query.variable_set
    plan: list[_Planned] = []
    for atom in query.atoms:
        mapping, diagonal = atom_columns(atom, db[atom.relation].attributes)

        def add(v: Collection[str], u: Collection[str], p_values) -> None:
            key = (
                atom.relation,
                tuple(sorted(mapping[x] for x in v)),
                tuple(sorted(mapping[x] for x in u)),
                diagonal,
            )
            cond = Conditional(frozenset(v), frozenset(u))
            plan.extend((AbstractStatistic(cond, p), atom, key) for p in p_values)

        variables = tuple(dict.fromkeys(atom.variables))
        joined = [v for v in variables if v in join_vars]
        add(variables, (), (1.0,))
        for var in joined:
            add((var,), (), (1.0,))
            others = set(variables) - {var}
            if others:
                add(others, (var,), ps)
        if max_u_size == 2:
            for pair in itertools.combinations(joined, 2):
                others = set(variables) - set(pair)
                if others:
                    add(others, pair, ps)
    return plan


class StatisticsCatalog:
    """Per-database cache of degree sequences and their norms.

    Examples
    --------
    >>> catalog = StatisticsCatalog(db)
    >>> stats = catalog.statistics_for(query, ps=[1, 2, 3, float("inf")])
    >>> result = lp_bound(stats, query=query)   # doctest: +SKIP
    """

    def __init__(self, db: Database) -> None:
        self._db = db
        self._sequences: dict[_SeqKey, np.ndarray] = {}
        self._norms: dict[tuple[_SeqKey, float], float] = {}
        self._lexsorts = 0

    @property
    def database(self) -> Database:
        return self._db

    def cached_sequences(self) -> int:
        """Number of degree sequences materialised so far."""
        return len(self._sequences)

    def cached_norms(self) -> int:
        """Number of (sequence, p) norms memoised so far."""
        return len(self._norms)

    def cache_stats(self) -> dict[str, int]:
        """All cache counters as one dict (the service's ``/metrics``).

        ``lexsorts`` counts the sorts paid for sequence extraction: one
        per extracted degree sequence.
        """
        return {
            "sequences": len(self._sequences),
            "norms": len(self._norms),
            "lexsorts": self._lexsorts,
        }

    # ------------------------------------------------------------------
    def _sequence(self, key: _SeqKey) -> np.ndarray:
        cached = self._sequences.get(key)
        if cached is None:
            name, v_cols, u_cols, diagonal = key
            relation = select_diagonal(self._db[name], diagonal)
            cached = degree_sequence(relation, v_cols, u_cols)
            self._sequences[key] = cached
            self._lexsorts += 1
        return cached

    def _log2_norms(self, key: _SeqKey, ps: Sequence[float]) -> None:
        """Memoise the log2 norms of one sequence for every p in ``ps``,
        the misses in one :func:`repro.core.norms.log2_norms` batch."""
        missing = [p for p in ps if (key, p) not in self._norms]
        if missing:
            for p, value in log2_norms(self._sequence(key), missing).items():
                self._norms[key, p] = value

    def sequence(
        self,
        relation_name: str,
        v_attrs: Sequence[str],
        u_attrs: Sequence[str] = (),
    ) -> np.ndarray:
        """The cached degree sequence deg_relation(V | U).

        Keys are canonicalised (column order within V and within U does not
        change the sequence), so self-join atoms binding the same columns
        under different variable names share one cache entry.
        """
        return self._sequence(
            (relation_name, tuple(sorted(v_attrs)), tuple(sorted(u_attrs)), ())
        )

    def log2_norm(
        self,
        relation_name: str,
        v_attrs: Sequence[str],
        u_attrs: Sequence[str],
        p: float,
    ) -> float:
        """The cached log2 ℓp-norm of deg_relation(V | U)."""
        key = (relation_name, tuple(sorted(v_attrs)), tuple(sorted(u_attrs)), ())
        self._log2_norms(key, (p,))
        return self._norms[key, p]

    # ------------------------------------------------------------------
    def _collect(
        self,
        queries: Sequence[ConjunctiveQuery],
        ps: Sequence[float],
        join_variables_only: bool,
        max_u_size: int,
    ) -> list[StatisticsSet]:
        ps = tuple(ps)
        plans = [
            _plan(query, self._db, ps, join_variables_only, max_u_size)
            for query in queries
        ]
        needed: dict[_SeqKey, set[float]] = {}
        for plan in plans:
            for stat, _, key in plan:
                needed.setdefault(key, set()).add(stat.p)
        for key, p_set in needed.items():
            self._log2_norms(key, sorted(p_set))
        return [
            StatisticsSet(
                ConcreteStatistic(stat, self._norms[key, stat.p], atom)
                for stat, atom, key in plan
            ).deduplicated()
            for plan in plans
        ]

    def precompute(
        self,
        queries: Sequence[ConjunctiveQuery],
        ps: Sequence[float] = (1.0, 2.0, math.inf),
        join_variables_only: bool = True,
    ) -> list[StatisticsSet]:
        """Collect the standard statistics family for a whole workload.

        Every statistic of every query is planned first; each missing
        degree sequence is then extracted once and all of its requested
        norms are computed in one batch.  Returns one
        :class:`StatisticsSet` per query, in workload order (see
        :func:`collect_statistics` for the family).
        """
        return self._collect(list(queries), ps, join_variables_only, 1)

    def statistics_for(
        self,
        query: ConjunctiveQuery,
        ps: Sequence[float] = (1.0, 2.0, math.inf),
        join_variables_only: bool = True,
    ) -> StatisticsSet:
        """One query's statistics, served from (and into) the cache."""
        return self.precompute([query], ps, join_variables_only)[0]


def collect_statistics(
    query: ConjunctiveQuery,
    db: Database,
    ps: Sequence[float] = (1.0, 2.0, math.inf),
    join_variables_only: bool = True,
    max_u_size: int = 1,
) -> StatisticsSet:
    """Measure a standard family of simple statistics on a database.

    For every atom R(Z): the cardinality |Π_Z(R)| (ℓ1 on (Z | ∅)); and for
    every (join) variable A ∈ Z, the distinct count |Π_A(R)| and
    ``||deg_R(Z − A | A)||_p`` for each requested p.  All statistics are
    *simple*, so the polymatroid bound computed from them is tight
    (Corollary 6.3) and the fast normal-cone LP is exact (Theorem 6.1).
    An atom that repeats a variable (``R(x, x)``) is measured on its
    diagonal.  This is a fresh :class:`StatisticsCatalog`'s
    :meth:`~StatisticsCatalog.statistics_for`.

    Parameters
    ----------
    ps:
        The ℓp norms to precompute, e.g. ``[1, 2, ..., 30, math.inf]`` for
        the paper's JOB experiment.
    join_variables_only:
        When true (default), per-variable statistics are collected only for
        variables shared by ≥ 2 atoms; non-join variables never help the
        bound of a full query beyond the cardinality statistic.
    max_u_size:
        1 (default) keeps every statistic simple.  2 additionally collects
        (rest | {u1, u2}) conditionals on atoms of arity ≥ 3 — *non-simple*
        statistics that force the polymatroid cone but can tighten bounds
        on wide relations.
    """
    catalog = StatisticsCatalog(db)
    return catalog._collect([query], ps, join_variables_only, max_u_size)[0]
