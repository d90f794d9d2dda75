"""The per-atom statistics collector: the reference for the catalog.

``collect_statistics`` measures each statistic of the standard family
straight off the database, one degree sequence per statistic, with no
cache and no shared planning.  :class:`repro.core.StatisticsCatalog`
(and the library's ``collect_statistics``, a fresh catalog) must
return the same statistics in the same order, bit for bit.
"""

import math
from typing import Iterator, Sequence

from repro.core.conditionals import (
    AbstractStatistic,
    ConcreteStatistic,
    Conditional,
    StatisticsSet,
)
from repro.core.degree import degree_sequence
from repro.core.norms import log2_norm
from repro.query.query import Atom, ConjunctiveQuery
from repro.relational import Database, Relation


def statistic_tuples(stats):
    """What bit-identity compares: each statistic's conditional, p,
    log2 bound and guard, in order."""
    return [(s.conditional, s.p, s.log2_bound, s.guard) for s in stats]


def _pair_conditionals(
    atom: Atom,
    relation: Relation,
    mapping: dict[str, str],
    distinct_vars: tuple[str, ...],
    join_variables: frozenset[str],
    ps: Sequence[float],
) -> Iterator[ConcreteStatistic]:
    """Non-simple conditionals (rest | {u1,u2}) for atoms of arity ≥ 3.

    These leave the Theorem 6.1 regime (the polymatroid cone becomes
    necessary and tightness is no longer guaranteed) but can strictly
    tighten bounds on ternary-and-wider relations.
    """
    import itertools as _it

    join_in_atom = [v for v in distinct_vars if v in join_variables]
    for u_pair in _it.combinations(join_in_atom, 2):
        others = frozenset(distinct_vars) - set(u_pair)
        if not others:
            continue
        seq = degree_sequence(
            relation,
            [mapping[v] for v in sorted(others)],
            [mapping[u] for u in sorted(u_pair)],
        )
        for p in ps:
            yield ConcreteStatistic(
                AbstractStatistic(
                    Conditional(others, frozenset(u_pair)), p
                ),
                log2_norm(seq, p),
                atom,
            )


def _atom_statistics(
    atom: Atom,
    relation: Relation,
    ps: Sequence[float],
    join_variables: frozenset[str],
    include_cardinalities: bool,
    include_distinct_counts: bool,
) -> Iterator[ConcreteStatistic]:
    distinct_vars = tuple(dict.fromkeys(atom.variables))
    if len(distinct_vars) != len(atom.variables):
        # repeated variable in the atom: measure on the diagonal selection,
        # mirroring ConcreteStatistic.measured_log2.
        groups: dict[str, list[int]] = {}
        for position, var in enumerate(atom.variables):
            groups.setdefault(var, []).append(position)
        repeated = [ps_ for ps_ in groups.values() if len(ps_) > 1]
        relation = Relation(
            relation.attributes,
            (
                row
                for row in relation
                if all(len({row[i] for i in ps_}) == 1 for ps_ in repeated)
            ),
            name=relation.name,
        )
    mapping: dict[str, str] = {}
    for position, var in enumerate(atom.variables):
        mapping.setdefault(var, relation.attributes[position])
    if include_cardinalities:
        cond = Conditional(frozenset(distinct_vars))
        seq = degree_sequence(relation, [mapping[v] for v in sorted(cond.v)])
        yield ConcreteStatistic(
            AbstractStatistic(cond, 1.0), log2_norm(seq, 1.0), atom
        )
    for var in distinct_vars:
        if var not in join_variables:
            continue
        others = frozenset(distinct_vars) - {var}
        if include_distinct_counts:
            cond = Conditional(frozenset({var}))
            seq = degree_sequence(relation, [mapping[var]])
            yield ConcreteStatistic(
                AbstractStatistic(cond, 1.0), log2_norm(seq, 1.0), atom
            )
        if not others:
            continue
        seq = degree_sequence(
            relation,
            [mapping[v] for v in sorted(others)],
            [mapping[var]],
        )
        for p in ps:
            yield ConcreteStatistic(
                AbstractStatistic(Conditional(others, frozenset({var})), p),
                log2_norm(seq, p),
                atom,
            )


def collect_statistics(
    query: ConjunctiveQuery,
    db: Database,
    ps: Sequence[float] = (1.0, 2.0, math.inf),
    join_variables_only: bool = True,
    include_cardinalities: bool = True,
    include_distinct_counts: bool = True,
    max_u_size: int = 1,
) -> StatisticsSet:
    """Measure a standard family of simple statistics on a database.

    For every atom R(Z): the cardinality |Π_Z(R)| (ℓ1 on (Z | ∅)); and for
    every (join) variable A ∈ Z, the distinct count |Π_A(R)| and
    ``||deg_R(Z − A | A)||_p`` for each requested p.  All statistics are
    *simple*, so the polymatroid bound computed from them is tight
    (Corollary 6.3) and the fast normal-cone LP is exact (Theorem 6.1).

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
    if max_u_size not in (1, 2):
        raise ValueError(f"max_u_size must be 1 or 2, got {max_u_size}")
    if join_variables_only:
        counts: dict[str, int] = {}
        for atom in query.atoms:
            for v in atom.variable_set:
                counts[v] = counts.get(v, 0) + 1
        join_vars = frozenset(v for v, c in counts.items() if c >= 2)
    else:
        join_vars = query.variable_set
    stats: list[ConcreteStatistic] = []
    for atom in query.atoms:
        relation = db[atom.relation]
        stats.extend(
            _atom_statistics(
                atom,
                relation,
                ps,
                join_vars,
                include_cardinalities,
                include_distinct_counts,
            )
        )
        if max_u_size >= 2 and len(set(atom.variables)) >= 3:
            distinct_vars = tuple(dict.fromkeys(atom.variables))
            mapping: dict[str, str] = {}
            for position, var in enumerate(atom.variables):
                mapping.setdefault(var, relation.attributes[position])
            stats.extend(
                _pair_conditionals(
                    atom, relation, mapping, distinct_vars, join_vars, ps
                )
            )
    return StatisticsSet(stats).deduplicated()
