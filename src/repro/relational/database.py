"""Database instances: named collections of relations.

A :class:`Database` maps relation names to :class:`~repro.relational.relation.Relation`
instances.  It is the object the paper calls a *database instance* D; queries
are evaluated against it and statistics (Σ, B) are checked against it via
:meth:`Database.satisfies`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

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
        self._relations = {
            name: rel.with_name(name) if rel.name != name else rel
            for name, rel in relations.items()
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

        One ``np.unique`` over the concatenated per-column value arrays;
        when any column holds an ``object`` dictionary the union is a
        Python set instead (mixed values need not sort, and must unify
        under Python equality).
        """
        arrays = [
            arr
            for rel in self._relations.values()
            for arr in rel.columnar().present_value_arrays()
        ]
        if not arrays:
            return 0
        merged = np.concatenate(arrays)
        if merged.dtype == object:
            return len(set(merged.tolist()))
        return int(np.unique(merged).size)

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
