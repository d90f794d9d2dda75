"""A precomputed-statistics catalog — the system-facing interface.

The paper's standing assumption (Sec. 1, Sec. 2.1) is that ℓp-norms are
*precomputed* and merely looked up at estimation time; computing a degree
sequence costs O(N log N) once, after which every norm is O(length).
:class:`StatisticsCatalog` realises that split: it caches degree sequences
per (relation, conditional) and serves concrete statistics for any norm on
demand, so a workload of many queries over one database pays the
sequence-extraction cost once.

:meth:`StatisticsCatalog.precompute` goes further: it plans every
(relation, V | U) degree-sequence request of a whole workload up front,
groups the requests by relation, and serves all conditionals that share a
sort-order prefix from a *single* lexsort of the relation's columnar code
matrix (:meth:`repro.relational.relation.Relation.prefix_group_size_counts`)
— e.g. the standard per-atom family of a binary relation needs two
lexsorts, not five extractions — with all requested ℓp-norms of each
sequence computed in one vectorized batch.

This is the object a query optimiser would hold; ``collect_statistics``
remains the convenient one-shot path for scripts and tests.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..query.query import Atom, ConjunctiveQuery
from ..relational import Database
from .conditionals import (
    AbstractStatistic,
    ConcreteStatistic,
    Conditional,
    StatisticsSet,
)
from .degree import degree_sequence
from .norms import log2_norm, log2_norms

__all__ = ["StatisticsCatalog", "plan_prefix_orders"]

#: A degree-sequence request: grouping columns U and counted columns V,
#: both canonically sorted.
_SeqRequest = tuple[tuple[str, ...], tuple[str, ...]]


def plan_prefix_orders(
    requests: Iterable[_SeqRequest],
) -> list[tuple[tuple[str, ...], list[tuple[int, int, _SeqRequest]]]]:
    """Assign degree-sequence requests to shared lexsort orders.

    A request (U, V) can be served by any column order whose first |U|
    columns are exactly U (as a set) and whose next |V| columns are exactly
    V: the group-size multiset is invariant under column permutations
    within U and within V.  Greedy assignment, longest requests first:
    each unplaced request opens the order ``U ++ V``; shorter requests then
    ride along as prefixes.  Returns ``(order, [(u_len, uv_len, request)])``
    pairs; deterministic for a given request set.
    """
    ordered = sorted(
        set(requests), key=lambda r: (-(len(r[0]) + len(r[1])), r)
    )
    orders: list[tuple[tuple[str, ...], list]] = []
    for u, v in ordered:
        u_len, uv_len = len(u), len(u) + len(v)
        placed = False
        for cols, assigned in orders:
            if (
                uv_len <= len(cols)
                and set(cols[:u_len]) == set(u)
                and set(cols[u_len:uv_len]) == set(v)
            ):
                assigned.append((u_len, uv_len, (u, v)))
                placed = True
                break
        if not placed:
            orders.append((u + v, [(u_len, uv_len, (u, v))]))
    return orders


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
        # (relation name, v-cols, u-cols) -> degree sequence
        self._sequences: dict[tuple, np.ndarray] = {}
        # (sequence key, p) -> log2 norm
        self._norms: dict[tuple, float] = {}
        self._lexsorts = 0
        self._batched_sequences = 0

    @property
    def database(self) -> Database:
        return self._db

    def cached_sequences(self) -> int:
        """Number of degree sequences materialised so far."""
        return len(self._sequences)

    def cached_norms(self) -> int:
        """Number of (sequence, p) norms memoised so far."""
        return len(self._norms)

    @property
    def lexsorts_performed(self) -> int:
        """Physical sorts paid for sequence extraction so far.

        Batched :meth:`precompute` pays one per shared sort order; the
        one-shot :meth:`sequence` path pays one per conditional.
        """
        return self._lexsorts

    @property
    def sequences_batched(self) -> int:
        """Degree sequences served by the prefix-sharing batch kernel."""
        return self._batched_sequences

    def cache_stats(self) -> dict[str, int]:
        """All cache counters as one dict (the service's ``/metrics``)."""
        return {
            "sequences": len(self._sequences),
            "norms": len(self._norms),
            "lexsorts": self._lexsorts,
            "sequences_batched": self._batched_sequences,
        }

    # ------------------------------------------------------------------
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
        key = (relation_name, tuple(sorted(v_attrs)), tuple(sorted(u_attrs)))
        cached = self._sequences.get(key)
        if cached is None:
            cached = degree_sequence(self._db[relation_name], key[1], key[2])
            self._sequences[key] = cached
            self._lexsorts += 1
        return cached

    def log2_norm(
        self,
        relation_name: str,
        v_attrs: Sequence[str],
        u_attrs: Sequence[str],
        p: float,
    ) -> float:
        """The cached log2 ℓp-norm of deg_relation(V | U)."""
        key = (relation_name, tuple(sorted(v_attrs)), tuple(sorted(u_attrs)), p)
        cached = self._norms.get(key)
        if cached is None:
            cached = log2_norm(self.sequence(relation_name, v_attrs, u_attrs), p)
            self._norms[key] = cached
        return cached

    def log2_norms(
        self,
        relation_name: str,
        v_attrs: Sequence[str],
        u_attrs: Sequence[str],
        ps: Sequence[float],
    ) -> dict[float, float]:
        """Cached log2 ℓp-norms for all ``ps`` of one degree sequence.

        Misses are computed in a single vectorized batch
        (:func:`repro.core.norms.log2_norms`): the log of the sequence is
        taken once, not once per p.
        """
        v_key = tuple(sorted(v_attrs))
        u_key = tuple(sorted(u_attrs))
        missing = [
            p for p in ps
            if (relation_name, v_key, u_key, p) not in self._norms
        ]
        if missing:
            sequence = self.sequence(relation_name, v_attrs, u_attrs)
            for p, value in log2_norms(sequence, missing).items():
                self._norms[(relation_name, v_key, u_key, p)] = value
        return {
            p: self._norms[(relation_name, v_key, u_key, p)] for p in ps
        }

    # ------------------------------------------------------------------
    # workload-level batched precomputation
    # ------------------------------------------------------------------
    @staticmethod
    def _join_variables(
        query: ConjunctiveQuery, join_variables_only: bool
    ) -> frozenset[str]:
        if not join_variables_only:
            return query.variable_set
        counts: dict[str, int] = {}
        for atom in query.atoms:
            for v in atom.variable_set:
                counts[v] = counts.get(v, 0) + 1
        return frozenset(v for v, c in counts.items() if c >= 2)

    def _plan_requests(
        self,
        queries: Sequence[ConjunctiveQuery],
        ps: Sequence[float],
        join_variables_only: bool,
    ) -> dict[tuple, set[float]]:
        """Every (relation, V-cols, U-cols) sequence the workload will ask
        for, with the set of p values needed on it.

        Mirrors :meth:`_atom_statistics` exactly; atoms with repeated
        variables are skipped (they take the uncached diagonal-selection
        path at serve time).
        """
        needed: dict[tuple, set[float]] = {}

        def need(relation: str, v_cols, u_cols, p_values) -> None:
            key = (relation, tuple(sorted(v_cols)), tuple(sorted(u_cols)))
            needed.setdefault(key, set()).update(p_values)

        for query in queries:
            join_vars = self._join_variables(query, join_variables_only)
            for atom in query.atoms:
                if len(set(atom.variables)) != len(atom.variables):
                    continue
                relation = self._db[atom.relation]
                mapping = {
                    var: relation.attributes[i]
                    for i, var in enumerate(atom.variables)
                }
                need(
                    atom.relation,
                    [mapping[v] for v in atom.variables],
                    (),
                    (1.0,),
                )
                for var in atom.variables:
                    if var not in join_vars:
                        continue
                    need(atom.relation, [mapping[var]], (), (1.0,))
                    others = frozenset(atom.variables) - {var}
                    if others:
                        need(
                            atom.relation,
                            [mapping[v] for v in others],
                            [mapping[var]],
                            ps,
                        )
        return needed

    def precompute(
        self,
        queries: Sequence[ConjunctiveQuery],
        ps: Sequence[float] = (1.0, 2.0, math.inf),
        join_variables_only: bool = True,
    ) -> list[StatisticsSet]:
        """Batch-collect statistics for a whole workload of queries.

        All missing degree sequences are planned up front, grouped by
        relation, and extracted through the prefix-sharing kernel — one
        lexsort serves every conditional whose (U, V) columns form a prefix
        of a shared sort order (:func:`plan_prefix_orders`).  Norms are
        computed in one multi-p batch per sequence.  Returns one
        :class:`StatisticsSet` per query, in workload order; the results
        are identical to calling :meth:`statistics_for` per query (and
        therefore to ``collect_statistics``).
        """
        queries = list(queries)
        ps = tuple(ps)
        needed = self._plan_requests(queries, ps, join_variables_only)
        missing_by_rel: dict[str, list] = {}
        for rel, v_key, u_key in needed:
            if (rel, v_key, u_key) in self._sequences:
                continue
            missing_by_rel.setdefault(rel, []).append((u_key, v_key))
        for rel in sorted(missing_by_rel):
            relation = self._db[rel]
            for cols, assigned in plan_prefix_orders(missing_by_rel[rel]):
                splits = [(u_len, uv_len) for u_len, uv_len, _ in assigned]
                counts_list = relation.prefix_group_size_counts(cols, splits)
                self._lexsorts += 1
                for (_, _, (u_key, v_key)), counts in zip(
                    assigned, counts_list
                ):
                    counts[::-1].sort()  # non-increasing, as degree_sequence
                    self._sequences[(rel, v_key, u_key)] = counts
                    self._batched_sequences += 1
        for (rel, v_key, u_key), p_set in sorted(needed.items()):
            self.log2_norms(rel, v_key, u_key, sorted(p_set))
        return [
            self.statistics_for(
                query, ps=ps, join_variables_only=join_variables_only
            )
            for query in queries
        ]

    # ------------------------------------------------------------------
    def _atom_statistics(
        self,
        atom: Atom,
        ps: Sequence[float],
        join_vars: frozenset[str],
    ) -> Iterable[ConcreteStatistic]:
        relation = self._db[atom.relation]
        if len(set(atom.variables)) != len(atom.variables):
            # repeated-variable atoms fall back to the uncached one-shot
            # path, which handles the diagonal selection correctly.
            from .conditionals import _atom_statistics as uncached

            yield from uncached(atom, relation, ps, join_vars, True, True)
            return
        mapping = {
            var: relation.attributes[i]
            for i, var in enumerate(atom.variables)
        }
        variables = atom.variables
        cond = Conditional(frozenset(variables))
        v_cols = [mapping[v] for v in sorted(variables)]
        yield ConcreteStatistic(
            AbstractStatistic(cond, 1.0),
            self.log2_norm(atom.relation, v_cols, (), 1.0),
            atom,
        )
        for var in variables:
            if var not in join_vars:
                continue
            yield ConcreteStatistic(
                AbstractStatistic(Conditional(frozenset({var})), 1.0),
                self.log2_norm(atom.relation, [mapping[var]], (), 1.0),
                atom,
            )
            others = frozenset(variables) - {var}
            if not others:
                continue
            v_cols = [mapping[v] for v in sorted(others)]
            norms = self.log2_norms(
                atom.relation, v_cols, [mapping[var]], tuple(ps)
            )
            for p in ps:
                yield ConcreteStatistic(
                    AbstractStatistic(Conditional(others, frozenset({var})), p),
                    norms[p],
                    atom,
                )

    def statistics_for(
        self,
        query: ConjunctiveQuery,
        ps: Sequence[float] = (1.0, 2.0, math.inf),
        join_variables_only: bool = True,
    ) -> StatisticsSet:
        """The same statistics family as :func:`collect_statistics`,
        served from the cache."""
        join_vars = self._join_variables(query, join_variables_only)
        stats: list[ConcreteStatistic] = []
        for atom in query.atoms:
            stats.extend(self._atom_statistics(atom, ps, join_vars))
        return StatisticsSet(stats).deduplicated()
