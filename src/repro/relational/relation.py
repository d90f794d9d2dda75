"""In-memory relations with set semantics.

The paper works with relations under set semantics: a relation is a finite
set of tuples over a fixed list of named attributes.  This module provides
an immutable :class:`Relation` that deduplicates on construction and offers
the handful of relational-algebra operations the rest of the library needs
(projection, selection, renaming) together with cached hash indexes used by
the join algorithms and the degree-sequence computations.

Values may be any hashable Python objects.  Integer-only relations are the
common case (graphs, synthetic benchmarks), but domain products
(:mod:`repro.tightness.normal_relations`) produce tuple-valued attributes,
so nothing here assumes integers.

Integer-valued relations additionally carry a lazily built, cached
columnar twin (:mod:`repro.relational.columnar`): dictionary-encoded
``int64`` NumPy code arrays per column.  The statistics hot paths —
``group_sizes``/``group_size_counts``, ``project``, ``distinct_count``,
``active_domain`` — dispatch to vectorized kernels whenever the twin
exists and transparently fall back to the original tuple-at-a-time
implementations (kept as the correctness oracle, exercised directly by the
equivalence test-suite) for relations holding non-integer values.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .columnar import ColumnarRelation, encode_column, encode_rows

__all__ = ["Relation"]

#: Tags :meth:`Relation.distinct_count` memo keys in ``_indexes``, whose
#: other keys are plain attribute tuples.
_DISTINCT_COUNT = object()


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
        "_attributes", "_rows", "_row_set", "_indexes", "_name", "_columnar",
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
        self._indexes: dict = {}
        self._name = name
        self._columnar: ColumnarRelation | None | bool = None

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
        if isinstance(columnar, ColumnarRelation):
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
        self._indexes = {}

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
        Integer columns are deduplicated through the columnar backend's
        composite keys — preserving first-occurrence row order exactly like
        the row-at-a-time constructor — and skip the per-row Python loop
        entirely; anything else falls back to the tuple constructor.
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
        if any(e is None for e in encoded):
            return cls(attrs, zip(*cols), name=name)
        n = lengths.pop() if lengths else 0
        from .columnar import composite_codes

        keys, _ = composite_codes(
            [codes for codes, _ in encoded],
            [len(d) for _, d in encoded],
            n,
        )
        _, first = np.unique(keys, return_index=True)
        first.sort()
        decoded = [d[codes[first]].tolist() for codes, d in encoded]
        rows = list(zip(*decoded))
        out = cls._from_distinct_rows(attrs, rows, name)
        # dropping duplicate rows cannot drop a dictionary value (its first
        # row survives), so the encoding is exact — keep it instead of
        # re-running encode_rows on the first columnar() call.
        out._columnar = ColumnarRelation(
            attrs,
            {a: codes[first] for a, (codes, _) in zip(attrs, encoded)},
            {a: d for a, (_, d) in zip(attrs, encoded)},
            len(first),
        )
        return out

    @classmethod
    def _from_distinct_rows(
        cls, attributes: tuple[str, ...], rows: list[tuple], name: str
    ) -> "Relation":
        """Internal: wrap rows already known distinct and well-formed."""
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"duplicate attribute names in {attributes!r}")
        out = cls.__new__(cls)
        out._attributes = attributes
        out._rows = tuple(rows)
        out._row_set = set(rows)
        out._indexes = {}
        out._name = name
        out._columnar = None
        return out

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
        out._indexes = {}
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
        out._indexes = {}
        out._name = self._name
        cached = self._columnar
        if isinstance(cached, ColumnarRelation):
            out._columnar = cached.renamed(mapping)
        else:
            out._columnar = cached
        return out

    def with_name(self, name: str) -> "Relation":
        """Return the same relation carrying a different display name."""
        out = Relation.__new__(Relation)
        out._attributes = self._attributes
        out._rows = self._rows
        out._row_set = self._row_set
        out._indexes = self._indexes
        out._name = name
        out._columnar = self._columnar
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
        pos = self.positions(attrs)
        col = self.columnar()
        if col is not None:
            rows, twin = col.project_with_rows(tuple(attrs))
            out = Relation._from_distinct_rows(tuple(attrs), rows, self._name)
            out._columnar = twin
            return out
        return self._project_tuples(attrs, pos)

    def _project_tuples(
        self, attrs: Sequence[str], pos: tuple[int, ...]
    ) -> "Relation":
        """Tuple-oracle projection (fallback path)."""
        rows = {
            tuple(row[i] for i in pos) for row in self._materialized_rows()
        }
        return Relation(tuple(attrs), rows, name=self._name)

    def select(self, predicate: Callable[[tuple], bool]) -> "Relation":
        """Keep rows on which ``predicate`` returns true."""
        return Relation(
            self._attributes,
            (row for row in self._materialized_rows() if predicate(row)),
            name=self._name,
        )

    def select_eq(self, attr: str, value) -> "Relation":
        """Keep rows where column ``attr`` equals ``value`` (uses index)."""
        index = self.index_on((attr,))
        return Relation(
            self._attributes, index.get((value,), ()), name=self._name
        )

    def restrict_rows(self, rows: Iterable[tuple]) -> "Relation":
        """Build a relation over the same attributes from given rows."""
        return Relation(self._attributes, rows, name=self._name)

    def _take_rows(self, indices) -> "Relation":
        """Row subset by positional indices (rows stay distinct).

        With a columnar twin this is one gather per column and the result
        stays lazily encoded; otherwise the materialized tuples are
        indexed directly.  Used by the partitioning and semijoin kernels,
        which select rows by position rather than by value.
        """
        col = self.columnar()
        if col is not None:
            return Relation._from_columnar(col.take(indices), name=self._name)
        rows = self._materialized_rows()
        return Relation._from_distinct_rows(
            self._attributes, [rows[i] for i in indices], self._name
        )

    # ------------------------------------------------------------------
    # columnar backend
    # ------------------------------------------------------------------
    def columnar(self) -> ColumnarRelation | None:
        """The cached dictionary-encoded twin, or ``None`` (fallback).

        Encoding is attempted once per relation and the outcome — the
        :class:`ColumnarRelation` or the fact that the values are not
        int64-encodable — is cached; relations are immutable so the cache
        never invalidates.
        """
        cached = self._columnar
        if cached is None:
            cached = encode_rows(self._attributes, self._rows)
            self._columnar = cached if cached is not None else False
        return cached or None

    # ------------------------------------------------------------------
    # indexes and statistics helpers
    # ------------------------------------------------------------------
    def index_on(self, attrs: Sequence[str]) -> Mapping[tuple, list]:
        """Hash index: key tuple over ``attrs`` -> list of full rows.

        The index is cached on the relation; relations are immutable so the
        cache never invalidates.
        """
        key = tuple(attrs)
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        pos = self.positions(key)
        index: dict[tuple, list] = defaultdict(list)
        for row in self._materialized_rows():
            index[tuple(row[i] for i in pos)].append(row)
        index = dict(index)
        self._indexes[key] = index
        return index

    def group_sizes(
        self, group_attrs: Sequence[str], value_attrs: Sequence[str]
    ) -> dict[tuple, int]:
        """Distinct ``value_attrs`` count per ``group_attrs`` value.

        This is the raw material of a degree sequence: for the conditional
        (V | U) the degree of a U-value u is the number of distinct
        V-values co-occurring with u in the projection onto U ∪ V.

        An empty ``group_attrs`` yields a single group keyed by ``()``.
        """
        gpos = self.positions(group_attrs)
        vpos = self.positions(value_attrs)
        col = self.columnar()
        if col is not None:
            return col.group_sizes(tuple(group_attrs), tuple(value_attrs))
        return self._group_sizes_tuples(gpos, vpos)

    def _group_sizes_tuples(
        self, gpos: tuple[int, ...], vpos: tuple[int, ...]
    ) -> dict[tuple, int]:
        """Tuple-oracle grouping (fallback path)."""
        groups: dict[tuple, set] = defaultdict(set)
        for row in self._materialized_rows():
            groups[tuple(row[i] for i in gpos)].add(
                tuple(row[i] for i in vpos)
            )
        return {key: len(values) for key, values in groups.items()}

    def group_size_counts(
        self, group_attrs: Sequence[str], value_attrs: Sequence[str]
    ) -> "np.ndarray":
        """The multiset of :meth:`group_sizes` values as an int64 array.

        This is all a degree sequence needs; the columnar path never
        decodes group keys.  Order is unspecified (callers sort).
        """
        gpos = self.positions(group_attrs)
        vpos = self.positions(value_attrs)
        col = self.columnar()
        if col is not None:
            return col.group_size_counts(
                tuple(group_attrs), tuple(value_attrs)
            )
        sizes = self._group_sizes_tuples(gpos, vpos)
        return np.fromiter(sizes.values(), dtype=np.int64, count=len(sizes))

    def prefix_group_size_counts(
        self,
        order_attrs: Sequence[str],
        splits: Sequence[tuple[int, int]],
    ) -> list["np.ndarray"]:
        """Group-size multisets for many conditionals sharing a sort order.

        Split ``(u_len, uv_len)`` is the conditional grouped by
        ``order_attrs[:u_len]`` counting distinct ``order_attrs[u_len:uv_len]``
        values.  With a columnar twin all splits are served from a single
        lexsort (:func:`repro.relational.columnar.prefix_run_counts`);
        otherwise each split falls back to :meth:`group_size_counts`.
        """
        self.positions(order_attrs)  # validate attribute names
        col = self.columnar()
        if col is not None:
            return col.prefix_group_size_counts(tuple(order_attrs), splits)
        return [
            self.group_size_counts(
                tuple(order_attrs[:u_len]),
                tuple(order_attrs[u_len:uv_len]),
            )
            for u_len, uv_len in splits
        ]

    def distinct_count(self, attrs: Sequence[str]) -> int:
        """Number of distinct values in the projection onto ``attrs``.

        Memoized in the relation's cache next to the hash indexes (under
        a sentinel-tagged key no attribute tuple can equal); relations
        are immutable, so the count never invalidates.
        """
        key = (_DISTINCT_COUNT, tuple(attrs))
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        pos = self.positions(attrs)
        col = self.columnar()
        if col is not None:
            count = col.distinct_count(tuple(attrs))
        else:
            rows = self._materialized_rows()
            count = len({tuple(row[i] for i in pos) for row in rows})
        self._indexes[key] = count
        return count

    def active_domain(self) -> set:
        """All values appearing in any column."""
        col = self.columnar()
        if col is not None:
            return col.active_domain()
        domain = set()
        for row in self._materialized_rows():
            domain.update(row)
        return domain

    def column(self, attr: str) -> list:
        """All values (with repetitions removed row-wise) of one column."""
        (pos,) = self.positions((attr,))
        return [row[pos] for row in self._materialized_rows()]
