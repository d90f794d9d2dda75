"""Abstract conditionals and (concrete) ℓp statistics (Sec. 1.2).

The paper's statistics language:

* an **abstract conditional** σ = (V | U) over query variables;
* an **abstract statistic** τ = (σ, p) with p ∈ (0, ∞];
* a **concrete statistic** (τ, B) asserts ``||deg_R(V|U)||_p ≤ B`` on the
  guard relation R; we carry b = log2(B);
* a **statistics set** (Σ, B) guarded by a query.

The standard family a query collects, and the cache that serves it,
live in :mod:`repro.core.catalog` (:class:`StatisticsCatalog` and its
one-query form :func:`collect_statistics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from ..relational import Database, Relation
from ..relational.columnar import unify_domain
from ..query.query import Atom
from .degree import degree_sequence
from .norms import log2_norm

__all__ = [
    "Conditional",
    "AbstractStatistic",
    "ConcreteStatistic",
    "StatisticsSet",
    "atom_columns",
    "diagonal_rows",
    "select_diagonal",
]


def atom_columns(
    atom: Atom, attributes: Sequence[str]
) -> tuple[dict[str, str], tuple[tuple[str, ...], ...]]:
    """Where an atom's variables sit among its relation's ``attributes``.

    Returns ``(mapping, diagonal)``: ``mapping`` sends each variable to
    the column of its first occurrence, and ``diagonal`` lists, per
    repeated variable, the columns it binds.  ``R(x, y, x)`` over
    columns ``(a, b, c)`` gives ``{x: a, y: b}`` and ``(("a", "c"),)``:
    the atom ranges over the rows whose ``a`` and ``c`` agree (see
    :func:`select_diagonal`).  An atom without repeats has ``()``.
    Raises ``ValueError`` when the atom's arity is not the relation's.
    """
    if len(atom.variables) != len(attributes):
        raise ValueError(
            f"atom {atom} has {len(atom.variables)} variable(s) but "
            f"relation {atom.relation!r} has {len(attributes)} column(s) "
            f"{tuple(attributes)}"
        )
    mapping: dict[str, str] = {}
    repeats: dict[str, list[str]] = {}
    for position, var in enumerate(atom.variables):
        column = attributes[position]
        if var in mapping:
            repeats.setdefault(var, [mapping[var]]).append(column)
        else:
            mapping[var] = column
    return mapping, tuple(map(tuple, repeats.values()))


def diagonal_rows(
    relation: Relation, diagonal: tuple[tuple[str, ...], ...]
) -> np.ndarray:
    """Indices, in row order, of the rows of ``relation`` on which each
    column group of ``diagonal`` (from :func:`atom_columns`) holds one
    value.

    Compares codes, after :func:`~repro.relational.columnar.unify_domain`
    puts the relation's columns over one dictionary: inside a
    :class:`~repro.relational.Database` they already share one, and on
    a bare relation whose columns carry different dictionaries it makes
    equal codes mean equal values.
    """
    (twin,) = unify_domain([relation.columnar()])
    keep = np.ones(twin.n_rows, dtype=bool)
    for columns in diagonal:
        base = twin.codes(columns[0])
        for column in columns[1:]:
            keep &= twin.codes(column) == base
    return np.flatnonzero(keep)


def select_diagonal(
    relation: Relation, diagonal: tuple[tuple[str, ...], ...]
) -> Relation:
    """The rows of ``relation`` on which each column group of ``diagonal``
    (from :func:`atom_columns`) holds one value."""
    if not diagonal:
        return relation
    return relation._take_rows(diagonal_rows(relation, diagonal))


def _format_vars(vs: frozenset[str]) -> str:
    return ",".join(sorted(vs)) if vs else "∅"


@dataclass(frozen=True)
class Conditional:
    """An abstract conditional (V | U) over query variables."""

    v: frozenset[str]
    u: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", frozenset(self.v))
        object.__setattr__(self, "u", frozenset(self.u))
        if not self.v:
            raise ValueError("V must be non-empty in a conditional (V | U)")

    @property
    def variables(self) -> frozenset[str]:
        """U ∪ V — the variables a guard atom must cover."""
        return self.u | self.v

    @property
    def is_simple(self) -> bool:
        """Simple conditionals have |U| ≤ 1 (Sec. 6)."""
        return len(self.u) <= 1

    def __str__(self) -> str:
        return f"({_format_vars(self.v)}|{_format_vars(self.u)})"


@dataclass(frozen=True)
class AbstractStatistic:
    """An abstract statistic τ = (σ, p)."""

    conditional: Conditional
    p: float

    def __post_init__(self) -> None:
        if not (self.p > 0):
            raise ValueError(f"p must be in (0, ∞], got {self.p}")

    @property
    def is_simple(self) -> bool:
        return self.conditional.is_simple

    def __str__(self) -> str:
        p = "∞" if self.p == math.inf else f"{self.p:g}"
        return f"ℓ{p}{self.conditional}"


@dataclass(frozen=True)
class ConcreteStatistic:
    """A concrete statistic: ||deg_{guard}(V|U)||_p ≤ 2^log2_bound.

    ``guard`` is the query atom whose relation witnesses the conditional;
    its variable tuple maps query variables to relation columns.
    """

    statistic: AbstractStatistic
    log2_bound: float
    guard: Atom

    def __post_init__(self) -> None:
        missing = self.statistic.conditional.variables - self.guard.variable_set
        if missing:
            raise ValueError(
                f"guard {self.guard} does not cover {sorted(missing)}"
            )

    # convenience accessors -------------------------------------------------
    @property
    def conditional(self) -> Conditional:
        return self.statistic.conditional

    @property
    def p(self) -> float:
        return self.statistic.p

    @property
    def bound(self) -> float:
        """B = 2^b in linear space (may be inf for huge b)."""
        try:
            return 2.0 ** self.log2_bound
        except OverflowError:  # pragma: no cover
            return math.inf

    @property
    def is_simple(self) -> bool:
        return self.statistic.is_simple

    def __str__(self) -> str:
        return (
            f"log2 ||deg_{self.guard.relation}{self.conditional}||_"
            f"{'∞' if self.p == math.inf else format(self.p, 'g')}"
            f" ≤ {self.log2_bound:.4g}"
        )

    # measurement ------------------------------------------------------------
    def measured_log2(self, db: Database) -> float:
        """log2 ||deg(V|U)||_p actually measured on the database (on the
        guard's diagonal when it repeats a variable)."""
        relation = db[self.guard.relation]
        mapping, diagonal = atom_columns(self.guard, relation.attributes)
        cond = self.conditional
        seq = degree_sequence(
            select_diagonal(relation, diagonal),
            [mapping[v] for v in sorted(cond.v)],
            [mapping[u] for u in sorted(cond.u)],
        )
        return log2_norm(seq, self.p)

    def holds_on(self, db: Database, tolerance_log2: float = 1e-9) -> bool:
        """Whether the statistic is satisfied by the database."""
        return self.measured_log2(db) <= self.log2_bound + tolerance_log2


class StatisticsSet:
    """A set of concrete statistics (Σ, B) guarded by a query.

    A set never changes after it is built (:meth:`add`, :meth:`merged`
    and the restrictions return new sets), so what is derived from it
    alone is computed once per set: :attr:`is_simple`, and whatever a
    consumer keeps through :meth:`derived` (the LP's structure per
    variable order, say).  A cache that keeps the set keeps these too.
    """

    def __init__(self, statistics: Iterable[ConcreteStatistic]) -> None:
        self._stats = list(statistics)
        self._derived: dict[Hashable, Any] = {}

    def __iter__(self) -> Iterator[ConcreteStatistic]:
        return iter(self._stats)

    def __len__(self) -> int:
        return len(self._stats)

    def __getitem__(self, idx: int) -> ConcreteStatistic:
        return self._stats[idx]

    @cached_property
    def is_simple(self) -> bool:
        """Whether every statistic is simple (Theorem 6.1 regime)."""
        return all(s.is_simple for s in self._stats)

    def derived(self, key: Hashable, build: Callable[..., Any], *args) -> Any:
        """``build(*args)``, computed once per ``key`` for this set.

        Racing threads may both build; every caller gets the first value
        stored, so a derived value is one shared object per set.
        """
        try:
            return self._derived[key]
        except KeyError:
            pass
        return self._derived.setdefault(key, build(*args))

    @property
    def norms_used(self) -> set[float]:
        return {s.p for s in self._stats}

    def restrict_ps(self, ps: Iterable[float]) -> "StatisticsSet":
        """Keep only statistics with p in ``ps`` (e.g. {1}, {1, ∞}).

        Memoized through :meth:`derived`: restricting a kept set to one
        family twice returns one set, whose own memo (the LP structure)
        then serves every solve of that family.
        """
        allowed = frozenset(ps)
        return self.derived(
            ("restrict-ps", allowed),
            lambda: StatisticsSet(s for s in self._stats if s.p in allowed),
        )

    def add(self, stat: ConcreteStatistic) -> "StatisticsSet":
        return StatisticsSet([*self._stats, stat])

    def merged(self, other: "StatisticsSet") -> "StatisticsSet":
        return StatisticsSet([*self._stats, *other])

    def deduplicated(self) -> "StatisticsSet":
        """Keep the tightest bound per (conditional, p, guard relation)."""
        best: dict[tuple, ConcreteStatistic] = {}
        for s in self._stats:
            key = (s.conditional, s.p, s.guard)
            if key not in best or s.log2_bound < best[key].log2_bound:
                best[key] = s
        return StatisticsSet(best.values())

    def holds_on(self, db: Database, tolerance_log2: float = 1e-9) -> bool:
        return all(s.holds_on(db, tolerance_log2) for s in self._stats)

    def __repr__(self) -> str:
        return f"<StatisticsSet with {len(self._stats)} statistics>"
