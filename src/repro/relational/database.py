"""Database instances: named collections of relations.

A :class:`Database` maps relation names to :class:`~repro.relational.relation.Relation`
instances.  It is the object the paper calls a *database instance* D; queries
are evaluated against it and statistics (Σ, B) are checked against it via
:meth:`Database.satisfies`.

Every relation of a database is encoded over one shared dictionary
(:func:`~repro.relational.columnar.unify_domain`), so a code means the
same value in every relation and the evaluators compare codes across
atoms without translating them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from .columnar import unify_domain
from .relation import Relation

__all__ = ["Database"]


class Database:
    """An immutable mapping from relation names to relations.

    Examples
    --------
    >>> r = Relation(("x", "y"), [(1, 2)])
    >>> db = Database({"R": r})
    >>> db["R"].arity
    2
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: Mapping[str, Relation]) -> None:
        twins = unify_domain([rel.columnar() for rel in relations.values()])
        self._relations = {
            name: (
                rel
                if rel.name == name and rel.columnar() is twin
                else rel._retwinned(name, twin)
            )
            for (name, rel), twin in zip(relations.items(), twins)
        }

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(
                f"relation {name!r} not in database "
                f"(have: {sorted(self._relations)})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list[str]:
        """Relation names, sorted."""
        return sorted(self._relations)

    def relations(self) -> Iterable[Relation]:
        """All relations."""
        return self._relations.values()

    def total_tuples(self) -> int:
        """Total tuple count across all relations."""
        return sum(len(r) for r in self._relations.values())

    def active_domain_size(self) -> int:
        """Size of the union of all columns' value sets (the paper's N).

        The distinct codes present in any column: every relation shares
        one dictionary, so equal values carry equal codes.
        """
        present = None
        for rel in self._relations.values():
            twin = rel.columnar()
            for attr in twin.attributes:
                if present is None:
                    present = np.zeros(len(twin.dictionary(attr)), dtype=bool)
                present[twin.codes(attr)] = True
        return 0 if present is None else int(np.count_nonzero(present))

    def with_relation(self, name: str, relation: Relation) -> "Database":
        """A new database with one relation added or replaced."""
        updated = dict(self._relations)
        updated[name] = relation
        return Database(updated)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{len(rel)}" for name, rel in sorted(self._relations.items())
        )
        return f"<Database {parts}>"

    # ------------------------------------------------------------------
    def satisfies(self, statistics, tolerance_log2: float = 1e-9) -> bool:
        """Check ``D |= (Σ, B)``: every concrete statistic holds on D.

        ``statistics`` is an iterable of
        :class:`repro.core.conditionals.ConcreteStatistic`.  Import is done
        lazily to keep the relational substrate free of core dependencies.
        """
        for stat in statistics:
            if stat.measured_log2(self) > stat.log2_bound + tolerance_log2:
                return False
        return True
