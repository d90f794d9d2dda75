"""In-memory relations with set semantics.

The paper works with relations under set semantics: a relation is a finite
set of tuples over a fixed list of named attributes.  This module provides
an immutable :class:`Relation` that deduplicates on construction and offers
the handful of relational-algebra operations the rest of the library needs
(projection and renaming, plus the positional row subsets that the
diagonal, partitioning and semijoin kernels take).

Values may be any hashable Python objects.  Integer-only relations are the
common case (graphs, synthetic benchmarks), but domain products
(:mod:`repro.tightness.normal_relations`) produce tuple-valued attributes,
so nothing here assumes integers.

Every relation additionally carries a lazily built, cached columnar twin
(:mod:`repro.relational.columnar`): dictionary-encoded ``int64`` NumPy
code arrays per column, over an ``int64`` dictionary for integer columns
and an ``object`` dictionary for any other hashable values.  The
statistics hot paths — ``group_sizes``/``group_size_counts``,
``project``, ``distinct_count``, ``active_domain`` — run as vectorized
kernels over the twin.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .columnar import (
    ColumnarRelation,
    composite_codes,
    encode_column,
    encode_rows,
)

__all__ = ["Relation"]

class Relation:
    """An immutable relation: a set of tuples over named attributes.

    Parameters
    ----------
    attributes:
        Attribute names, in column order.  Must be unique.
    rows:
        Iterable of tuples (or sequences) of values, one per attribute.
        Duplicates are removed (set semantics).

    Examples
    --------
    >>> r = Relation(("x", "y"), [(1, 2), (1, 3), (1, 2)])
    >>> len(r)
    2
    >>> sorted(r.project(("x",)))
    [(1,)]
    """

    __slots__ = (
        "_attributes", "_rows", "_row_set", "_distinct_counts", "_name",
        "_columnar",
    )

    def __init__(
        self,
        attributes: Sequence[str],
        rows: Iterable[Sequence] = (),
        name: str = "",
    ) -> None:
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"duplicate attribute names in {attrs!r}")
        self._attributes = attrs
        arity = len(attrs)
        seen = set()
        materialized = []
        for row in rows:
            t = tuple(row)
            if len(t) != arity:
                raise ValueError(
                    f"row {t!r} has arity {len(t)}, expected {arity}"
                )
            if t not in seen:
                seen.add(t)
                materialized.append(t)
        self._rows = tuple(materialized)
        self._row_set = seen
        self._distinct_counts: dict = {}
        self._name = name
        self._columnar: ColumnarRelation | None = None

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in column order."""
        return self._attributes

    @property
    def name(self) -> str:
        """Optional relation name (used in reports and error messages)."""
        return self._name

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self._attributes)

    def __len__(self) -> int:
        if self._rows is None:
            return self._columnar.n_rows
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._materialized_rows())

    def __contains__(self, row) -> bool:
        return tuple(row) in self._materialized_set()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self._attributes == other._attributes
            and self._materialized_set() == other._materialized_set()
        )

    def __hash__(self) -> int:
        return hash((self._attributes, frozenset(self._materialized_set())))

    def __repr__(self) -> str:
        label = self._name or "Relation"
        return f"<{label}({', '.join(self._attributes)}): {len(self)} rows>"

    def __getstate__(self):
        # Compact transport for process pools: derived caches (hash
        # indexes, the row set) rebuild on demand in the receiving
        # process, and when the columnar twin exists it alone carries
        # the rows (tuples decode lazily on the other side).
        columnar = self._columnar
        if columnar is not None:
            return (self._attributes, self._name, None, columnar)
        return (
            self._attributes,
            self._name,
            self._materialized_rows(),
            columnar,
        )

    def __setstate__(self, state):
        self._attributes, self._name, self._rows, self._columnar = state
        self._row_set = None
        self._distinct_counts = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Sequence], attributes: Sequence[str] = ("x", "y"),
        name: str = "",
    ) -> "Relation":
        """Build a binary relation (e.g. a graph edge set) from pairs."""
        attrs = tuple(attributes)
        if len(attrs) != 2:
            raise ValueError("from_pairs requires exactly two attributes")
        return cls(attrs, pairs, name=name)

    @classmethod
    def from_columns(
        cls,
        attributes: Sequence[str],
        columns: Sequence,
        name: str = "",
    ) -> "Relation":
        """Build a relation column-first, deduplicating vectorized.

        ``columns`` holds one sequence (list or NumPy array) per attribute.
        Rows are deduplicated through the columnar backend's composite
        keys — preserving first-occurrence row order exactly like the
        row-at-a-time constructor — without a per-row Python loop, and
        their tuples materialize only when something row-oriented asks.
        """
        attrs = tuple(attributes)
        cols = list(columns)
        if len(cols) != len(attrs):
            raise ValueError(
                f"{len(cols)} columns for {len(attrs)} attributes"
            )
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        if not attrs:
            return cls(attrs, [] if not cols else [], name=name)
        encoded = [encode_column(c) for c in cols]
        n = lengths.pop() if lengths else 0
        keys, _ = composite_codes(
            [codes for codes, _ in encoded],
            [len(d) for _, d in encoded],
            n,
        )
        _, first = np.unique(keys, return_index=True)
        first.sort()
        # dropping duplicate rows cannot drop a dictionary value (its first
        # row survives), so the encoding is exact; rows decode lazily.
        twin = ColumnarRelation(
            attrs,
            {a: codes[first] for a, (codes, _) in zip(attrs, encoded)},
            {a: d for a, (_, d) in zip(attrs, encoded)},
            len(first),
        )
        return cls._from_columnar(twin, name=name)

    @classmethod
    def _from_columnar(
        cls, columnar: ColumnarRelation, name: str = ""
    ) -> "Relation":
        """Internal: wrap an encoded table whose rows are known distinct.

        Tuple materialization (``_rows``/``_row_set``) is deferred until
        something row-oriented — iteration, membership, equality — asks
        for it; the statistics paths and joins never do.
        """
        attributes = columnar.attributes
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"duplicate attribute names in {attributes!r}")
        out = cls.__new__(cls)
        out._attributes = attributes
        out._rows = None
        out._row_set = None
        out._distinct_counts = {}
        out._name = name
        out._columnar = columnar
        return out

    def _materialized_rows(self) -> tuple:
        """Row tuples, decoding the columnar twin on first use."""
        if self._rows is None:
            self._rows = tuple(self._columnar.decode_rows(self._attributes))
        return self._rows

    def _materialized_set(self) -> set:
        if self._row_set is None:
            self._row_set = set(self._materialized_rows())
        return self._row_set

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Return a copy with attributes renamed via ``mapping``.

        Attributes not present in ``mapping`` keep their names.
        """
        new_attrs = tuple(mapping.get(a, a) for a in self._attributes)
        out = Relation.__new__(Relation)
        out._attributes = new_attrs
        if len(set(new_attrs)) != len(new_attrs):
            raise ValueError(f"rename produced duplicates: {new_attrs!r}")
        out._rows = self._rows
        out._row_set = self._row_set
        out._distinct_counts = {}
        out._name = self._name
        cached = self._columnar
        out._columnar = None if cached is None else cached.renamed(mapping)
        return out

    def with_name(self, name: str) -> "Relation":
        """Return the same relation carrying a different display name."""
        return self._retwinned(name, self._columnar)

    def _retwinned(
        self, name: str, columnar: ColumnarRelation | None
    ) -> "Relation":
        """Internal: the same rows under ``name`` with an equivalent
        encoded twin (the one a database re-expressed over its shared
        dictionary)."""
        out = Relation.__new__(Relation)
        out._attributes = self._attributes
        out._rows = self._rows
        out._row_set = self._row_set
        out._distinct_counts = self._distinct_counts
        out._name = name
        out._columnar = columnar
        return out

    # ------------------------------------------------------------------
    # relational algebra
    # ------------------------------------------------------------------
    def positions(self, attrs: Sequence[str]) -> tuple[int, ...]:
        """Column positions of ``attrs`` (raises KeyError if missing)."""
        pos = []
        for a in attrs:
            try:
                pos.append(self._attributes.index(a))
            except ValueError:
                raise KeyError(
                    f"attribute {a!r} not in {self._attributes!r}"
                ) from None
        return tuple(pos)

    def project(self, attrs: Sequence[str]) -> "Relation":
        """Project onto ``attrs`` (deduplicating)."""
        self.positions(attrs)  # validate attribute names
        return Relation._from_columnar(
            self.columnar().project(attrs), name=self._name
        )

    def _take_rows(self, indices) -> "Relation":
        """Row subset by positional indices (rows stay distinct).

        One gather per column; the result stays lazily encoded.  Used by
        the partitioning and semijoin kernels, which select rows by
        position rather than by value.
        """
        return Relation._from_columnar(
            self.columnar().take(indices), name=self._name
        )

    # ------------------------------------------------------------------
    # columnar backend
    # ------------------------------------------------------------------
    def columnar(self) -> ColumnarRelation:
        """The cached dictionary-encoded twin.

        Encoded on first use and cached; relations are immutable so the
        cache never invalidates.
        """
        if self._columnar is None:
            self._columnar = encode_rows(self._attributes, self._rows)
        return self._columnar

    # ------------------------------------------------------------------
    # statistics helpers
    # ------------------------------------------------------------------
    def group_sizes(
        self, group_attrs: Sequence[str], value_attrs: Sequence[str]
    ) -> dict[tuple, int]:
        """Distinct ``value_attrs`` count per ``group_attrs`` value.

        This is the raw material of a degree sequence: for the conditional
        (V | U) the degree of a U-value u is the number of distinct
        V-values co-occurring with u in the projection onto U ∪ V.

        An empty ``group_attrs`` yields a single group keyed by ``()``.
        """
        self.positions((*group_attrs, *value_attrs))  # validate names
        return self.columnar().group_sizes(
            tuple(group_attrs), tuple(value_attrs)
        )

    def group_size_counts(
        self, group_attrs: Sequence[str], value_attrs: Sequence[str]
    ) -> "np.ndarray":
        """The multiset of :meth:`group_sizes` values as an int64 array.

        This is all a degree sequence needs; group keys are never
        decoded.  Order is unspecified (callers sort).
        """
        self.positions((*group_attrs, *value_attrs))  # validate names
        return self.columnar().group_size_counts(
            tuple(group_attrs), tuple(value_attrs)
        )

    def distinct_count(self, attrs: Sequence[str]) -> int:
        """Number of distinct values in the projection onto ``attrs``.

        Memoized per attribute tuple; relations are immutable, so the
        count never invalidates.
        """
        key = tuple(attrs)
        cached = self._distinct_counts.get(key)
        if cached is not None:
            return cached
        self.positions(key)  # validate attribute names
        count = self.columnar().distinct_count(key)
        self._distinct_counts[key] = count
        return count

    def active_domain(self) -> set:
        """All values appearing in any column."""
        return self.columnar().active_domain()

