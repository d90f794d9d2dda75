"""Dictionary-encoded columnar backend for relations.

The paper's standing assumption is that ℓp-norm statistics are cheap to
precompute at scale; with rows stored as Python tuples the statistics
kernels (``group_sizes``, projections, distinct counts, joins) run per-row
Python loops and sit orders of magnitude off the hardware ceiling.  This
module provides the vectorized substrate: every relation lazily
materializes one ``int64`` NumPy *code* array per column together with a
*dictionary* of the distinct values, i.e. a dictionary encoding
``value = dictionary[code]``.  Every hashable value encodes, so every
operator has exactly one (code-space) implementation.

Key design points:

* A column of plain integers gets a sorted ``int64`` dictionary.  Any
  other column (strings, floats, tuples, integers beyond ``int64``,
  mixtures) gets an ``object`` dictionary of the original Python values:
  sorted when the values are mutually orderable, in first-occurrence
  order otherwise.  Either way codes are dense ``int64`` and equal values
  (by Python equality) share one code.
* Relations that meet share one code space: :func:`unify_domain`
  re-expresses a set of encoded twins over one dictionary built by the
  same rule (:class:`~repro.relational.database.Database` applies it to
  every relation it holds, a diagonal selection to one relation's
  columns).
  It is the one place where values of two relations meet — a
  :func:`sorted_lookup` between ``int64`` dictionaries, a hash lookup
  (:func:`dict_mapping`) as soon as either side is ``object``, so
  ``1``, ``np.int64(1)`` and ``1.0`` match exactly as under Python
  equality.  Every operator downstream compares codes directly.
* Multi-column keys are flattened to a single ``int64`` per row by
  :func:`composite_codes`, the one mixed-radix key builder (radix over
  dictionary cardinalities, re-factorized through ``np.unique``
  whenever the radix product would reach 2^62).  Keys matched *across*
  relations come from :func:`align_composite_keys`, which builds each
  side through it and re-factorizes both sides jointly when their
  shared radix product would overflow.
* Membership of a batch of keys in a sorted key array is one
  :func:`sorted_lookup` (``searchsorted``, clip, compare): the trie
  probes of :class:`CodeTrie`, the dictionary translation, the
  semijoin and the counting fold all run through it.
* Grouping/deduplication is ``np.unique`` on composite keys; distinct
  counts per group come from ``np.bincount`` — no Python-level loop ever
  touches a row.
"""

from __future__ import annotations

import operator
import os
from collections import Counter
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ColumnarRelation",
    "CodeTrie",
    "ChunkedColumns",
    "OutputSink",
    "MaterializeSink",
    "CountSink",
    "GroupCountSink",
    "SpillSink",
    "align_composite_keys",
    "dict_mapping",
    "encode_column",
    "encode_rows",
    "composite_codes",
    "sorted_lookup",
    "unify_domain",
]

_EMPTY_CODES = np.zeros(0, dtype=np.int64)

#: Radix products stay below this to keep composite keys and trie level
#: keys overflow-free.
_MAX_RADIX = 1 << 62


def encode_column(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode one column of hashable values.

    Returns ``(codes, dictionary)`` with ``dictionary[codes]`` reproducing
    the input.  A column of plain integers that fit ``int64`` gets a
    sorted ``int64`` dictionary.  Any other column gets an ``object``
    dictionary of the original Python values, built element-wise
    (``np.asarray`` would split tuple values into a 2-D array and
    stringify a mixed column): sorted when sorting the values succeeds,
    in first-occurrence order when they are not mutually orderable.
    Values equal under Python equality (``1``, ``1.0``, ``True``) share
    one code, represented by their first occurrence.
    """
    arr = _int64_array(values)
    if arr is not None:
        dictionary, codes = np.unique(arr, return_inverse=True)
        return codes.astype(np.int64, copy=False), dictionary
    if isinstance(values, np.ndarray):
        values = values.tolist()  # Python scalars, not NumPy ones
    code_of: dict = {}
    codes = np.fromiter(
        (code_of.setdefault(v, len(code_of)) for v in values),
        dtype=np.int64,
        count=len(values),
    )
    distinct = list(code_of)
    try:
        order = sorted(range(len(distinct)), key=distinct.__getitem__)
    except TypeError:  # not mutually orderable: keep first occurrence
        order = None
    if order is not None:
        rank = np.empty(len(distinct), dtype=np.int64)
        rank[order] = np.arange(len(distinct))
        codes = rank[codes]
        distinct = [distinct[i] for i in order]
    return codes, _object_array(distinct)


def _object_array(values: list) -> np.ndarray:
    """``values`` as a 1-D ``object`` array, filled element-wise (a
    tuple value stays one element instead of becoming a row)."""
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        out[i] = value
    return out


def _int64_array(values: Sequence) -> np.ndarray | None:
    """``values`` as an ``int64`` array, or ``None`` unless every value
    is an ``int64``-representable integer (an empty column counts)."""
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.ndim != 1:
        return None
    if arr.size == 0:
        return _EMPTY_CODES
    if arr.dtype.kind not in "iu":
        return None
    if arr.dtype.kind == "u" and arr.dtype.itemsize >= 8:
        if arr.max() > np.iinfo(np.int64).max:
            return None
    return arr.astype(np.int64, copy=False)


def encode_rows(
    attributes: Sequence[str], rows: Sequence[tuple]
) -> "ColumnarRelation":
    """Encode row-major tuples into a :class:`ColumnarRelation`."""
    attrs = tuple(attributes)
    codes: dict[str, np.ndarray] = {}
    dicts: dict[str, np.ndarray] = {}
    for position, attr in enumerate(attrs):
        codes[attr], dicts[attr] = encode_column([row[position] for row in rows])
    return ColumnarRelation(attrs, codes, dicts, len(rows))


def sorted_lookup(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched membership in a sorted array: ``(found, positions)``.

    ``found[i]`` says whether ``values[i]`` occurs in ``keys``, and then
    ``keys[positions[i]] == values[i]``; elsewhere ``positions[i]`` is an
    arbitrary in-range index (0 when ``keys`` is empty).  One
    ``searchsorted`` over the whole batch, clipped in place.
    """
    if len(keys) == 0:
        return (
            np.zeros(len(values), dtype=bool),
            np.zeros(len(values), dtype=np.int64),
        )
    positions = keys.searchsorted(values)
    np.minimum(positions, len(keys) - 1, out=positions)
    return keys[positions] == values, positions


def dict_mapping(
    source_dict: np.ndarray, target_dict: np.ndarray
) -> np.ndarray:
    """Code-to-code translation table between two dictionaries.

    ``mapping[source_code]`` is the target code of the same value, or −1
    when the value is absent from ``target_dict``.  Between two ``int64``
    dictionaries (both sorted) this is one :func:`sorted_lookup`; when either
    side is an ``object`` dictionary it is a value→code hash lookup under
    Python equality, so ``1``, ``np.int64(1)`` and ``1.0`` match exactly
    as they do in a Python set.  :func:`unify_domain` builds one table
    per dictionary it re-expresses.
    """
    if source_dict.dtype != object and target_dict.dtype != object:
        found, positions = sorted_lookup(target_dict, source_dict)
        return np.where(found, positions, np.int64(-1))
    code_of = dict(zip(target_dict.tolist(), range(len(target_dict))))
    return np.fromiter(
        map(code_of.get, source_dict.tolist(), repeat(-1)),
        dtype=np.int64,
        count=len(source_dict),
    )


def _merged_dictionary(dicts: Sequence[np.ndarray]) -> np.ndarray:
    """One dictionary holding every value of ``dicts``, by the rule of
    :func:`encode_column`: a sorted ``int64`` array when every input is
    ``int64``, otherwise an ``object`` array of the distinct values
    (under Python equality) — sorted when they are mutually orderable,
    in first-occurrence order (``dicts`` order) when they are not."""
    if all(d.dtype != object for d in dicts):
        return np.unique(np.concatenate(dicts))
    distinct = list(dict.fromkeys(v for d in dicts for v in d.tolist()))
    try:
        distinct.sort()
    except TypeError:  # not mutually orderable: keep first occurrence
        pass
    return _object_array(distinct)


def unify_domain(
    twins: Sequence["ColumnarRelation"],
) -> list["ColumnarRelation"]:
    """``twins`` re-expressed over one shared dictionary, in input order.

    The one decision about which code space a relation's codes live in:
    after it, a code means the same value in every returned twin, so
    joins, semijoins and trie intersections compare codes directly.  The
    shared dictionary merges every column's dictionary by the rule of
    :func:`encode_column`; sorted domains keep each column's value
    order, so row order and trie order are unchanged on sortable data.

    Work is paid only where something changes.  When every column
    already holds one dictionary object the input comes back as is.
    Each distinct twin is re-encoded once (twins shared by several
    inputs stay shared), and a column whose dictionary equals the merged
    one keeps its code array — as does every cached trie over such
    columns only.
    """
    twins = list(twins)
    distinct = list({id(t): t for t in twins}.values())
    dicts = list(
        {id(d): d for t in distinct for d in t._dicts.values()}.values()
    )
    if len(dicts) <= 1:
        return twins
    domain = _merged_dictionary(dicts)
    tables = {
        id(d): (
            None
            if d.dtype == domain.dtype and np.array_equal(d, domain)
            else dict_mapping(d, domain)
        )
        for d in dicts
    }
    recoded = {id(t): t._recoded(domain, tables) for t in distinct}
    return [recoded[id(t)] for t in twins]


def composite_codes(
    code_arrays: Sequence[np.ndarray],
    cardinalities: Sequence[int],
    n_rows: int,
) -> tuple[np.ndarray, int]:
    """Flatten multi-column codes to one comparable ``int64`` key per row.

    Returns ``(keys, radix)`` with every key in ``[0, radix)``; equal rows
    get equal keys.  Mixed-radix accumulation, re-factorized via
    ``np.unique`` whenever the radix product would overflow — after
    re-factorization the running radix is at most ``n_rows``, so any
    realistic column count is safe.
    """
    if not code_arrays:
        return np.zeros(n_rows, dtype=np.int64), 1
    keys = code_arrays[0]
    radix = max(1, int(cardinalities[0]))
    for codes, card in zip(code_arrays[1:], cardinalities[1:]):
        card = max(1, int(card))
        if radix * card >= _MAX_RADIX:
            uniq, keys = np.unique(keys, return_inverse=True)
            keys = keys.astype(np.int64, copy=False)
            radix = max(1, len(uniq))
            # still past the cap only when rows × domain ≥ 2^62
            if radix * card >= _MAX_RADIX:  # pragma: no cover
                raise OverflowError("composite key radix exceeds int64")
        keys = keys * card + codes
        radix *= card
    return keys, radix


def align_composite_keys(
    target_codes: Sequence[np.ndarray],
    source_codes: Sequence[np.ndarray],
    domain_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Comparable ``int64`` keys for two relations' key columns.

    The shared kernel behind cross-relation key matching (semijoins and
    the counting fold).  Both sides' one or more columns live in one
    code space (:func:`unify_domain`) of ``domain_size`` values.  While
    ``domain_size ** k`` for ``k`` columns stays below 2^62, each side
    flattens on its own through :func:`composite_codes` to the same
    mixed-radix keys, which order rows lexicographically; at or above
    it, both sides' columns are stacked and re-factorized jointly, so
    the keys still share one key space.

    Returns ``(target_keys, source_keys)``.
    """
    cards = [domain_size] * len(target_codes)
    n_target, n_source = len(target_codes[0]), len(source_codes[0])
    if max(1, int(domain_size)) ** len(cards) < _MAX_RADIX:
        return (
            composite_codes(target_codes, cards, n_target)[0],
            composite_codes(source_codes, cards, n_source)[0],
        )
    keys, _ = composite_codes(
        [np.concatenate(pair) for pair in zip(target_codes, source_codes)],
        cards,
        n_target + n_source,
    )
    return keys[:n_target], keys[n_target:]


class ChunkedColumns:
    """Streaming accumulator for column-chunked results.

    Producers that emit output in chunks (the blocked WCOJ frontier, the
    output sinks) append one equal-length array per column;
    the chunks are held as-is and concatenated exactly once at
    :meth:`finalize` — appending chunk ``k`` costs O(1), not O(rows so
    far), so accumulating ``K`` chunks copies each row once instead of
    the O(K) times repeated ``np.concatenate`` calls would.
    """

    __slots__ = ("_chunks", "_n_rows")

    def __init__(self, n_columns: int) -> None:
        self._chunks: list[list[np.ndarray]] = [[] for _ in range(n_columns)]
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_chunks(self) -> int:
        return len(self._chunks[0]) if self._chunks else 0

    def append(self, columns: Sequence[np.ndarray]) -> None:
        """Add one chunk (one array per column, equal lengths)."""
        if len(columns) != len(self._chunks):
            raise ValueError(
                f"{len(columns)} columns for a {len(self._chunks)}-column "
                "accumulator"
            )
        for store, column in zip(self._chunks, columns):
            store.append(column)
        if self._chunks:
            self._n_rows += len(columns[0])

    def iter_chunks(self) -> Iterator[list[np.ndarray]]:
        """The appended chunks, in order, as one array-list per chunk.

        Lets a consumer drain the accumulator chunk-at-a-time without
        the :meth:`finalize` concatenation — the mid-run
        materialize→spill escalation replays these as the first disk
        segments, preserving emission order exactly.
        """
        for k in range(self.n_chunks):
            yield [store[k] for store in self._chunks]

    def finalize(self) -> list[np.ndarray]:
        """One array per column: a single concatenation pass per column."""
        out = []
        for store in self._chunks:
            if not store:
                out.append(_EMPTY_CODES)
            elif len(store) == 1:
                out.append(store[0])
            else:
                out.append(np.concatenate(store))
        return out


class OutputSink:
    """Streaming consumer of a join's finished output rows.

    The evaluators (:func:`repro.evaluation.wcoj.generic_join` and the
    Theorem 2.6 pipeline) emit output in batches instead of holding
    |Q(D)| rows in RAM; a sink decides what happens to each batch —
    materialize, count, aggregate, or spill to disk.  Lifecycle:

    1. ``open(variables)`` — once per output schema.  Re-opening with the
       *same* variables is a no-op, so one sink can absorb every part of
       a partitioned evaluation (part outputs are disjoint, see
       :func:`repro.evaluation.lp_join.evaluate_with_partitioning`).
    2. ``append(columns)`` — zero or more times, in output order.
       ``columns`` is one equal-length array per variable, in
       ``variables`` order: the evaluators emit decoded value columns
       (``int64`` for integer data, ``object`` arrays of the original
       Python values otherwise).
    3. Results come from sink-specific accessors (``total``,
       ``counts()``, ``relation()``, ``iter_chunks()``); nothing is
       buffered past what the accessor semantics require.

    Subclasses implement :meth:`_consume_columns`.  A sink that only
    consumes batch *sizes* sets :attr:`needs_values` to ``False``;
    producers may then call :meth:`append_size` instead of decoding
    value columns the sink would discard.
    """

    #: Whether this sink reads row values (``False`` ⇒ sizes suffice).
    needs_values = True

    def __init__(self) -> None:
        self._variables: tuple[str, ...] | None = None
        self._n_rows = 0

    @property
    def variables(self) -> tuple[str, ...]:
        if self._variables is None:
            raise RuntimeError("sink has not been opened")
        return self._variables

    @property
    def n_rows(self) -> int:
        """Rows consumed so far (an exact Python int, never an int64)."""
        return self._n_rows

    def open(self, variables: Sequence[str]) -> None:
        """Fix the output schema; idempotent for an identical schema."""
        variables = tuple(variables)
        if self._variables is None:
            self._variables = variables
            self._opened(variables)
        elif self._variables != variables:
            raise ValueError(
                f"sink already open for {self._variables}, got {variables}"
            )

    def _opened(self, variables: tuple[str, ...]) -> None:
        """Subclass hook run once on the first :meth:`open`."""

    def append(self, columns: Sequence[np.ndarray]) -> None:
        """Consume one batch of value columns (``variables`` order)."""
        if self._variables is None:
            raise RuntimeError("sink has not been opened")
        if len(columns) != len(self._variables):
            raise ValueError(
                f"{len(columns)} columns for {len(self._variables)} variables"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(
                f"ragged batch: column lengths {sorted(lengths)}"
            )
        n = lengths.pop() if lengths else 0
        if n:
            self._consume_columns(list(columns), n)
            self._n_rows += n

    def append_size(self, n: int) -> None:
        """Count ``n`` finished rows without their values.

        Sinks with ``needs_values = False`` accept this — it is the
        producers' fast path for counting-style sinks, skipping the
        decode of value columns the sink would discard.  So does any
        sink opened for zero variables, whose rows carry no values.
        """
        if self.needs_values and self._variables != ():
            raise TypeError(
                f"{type(self).__name__} consumes row values; use append()"
            )
        if self._variables is None:
            raise RuntimeError("sink has not been opened")
        if n < 0:
            raise ValueError(f"negative batch size {n}")
        if n and self.needs_values:
            self._consume_columns([], int(n))
        self._n_rows += int(n)

    def _consume_columns(self, columns: list[np.ndarray], n: int) -> None:
        raise NotImplementedError


class MaterializeSink(OutputSink):
    """Accumulate the output, then build a Relation.

    Wraps a :class:`ChunkedColumns` accumulator (append O(1) per chunk,
    one concatenation pass per column); :meth:`relation` materializes the
    collected rows in emission order.  The Theorem 2.6 evaluators (serial
    and parallel) materialize ``sink=None`` runs through it, and
    :class:`~repro.evaluation.governor.EscalatingSink` holds its
    in-memory rows in one.  :func:`~repro.evaluation.wcoj.generic_join`
    keeps its own code-space accumulator for ``sink=None``: it decodes
    once at the end instead of per batch.
    """

    def __init__(self) -> None:
        super().__init__()
        self._acc: ChunkedColumns | None = None

    def _opened(self, variables: tuple[str, ...]) -> None:
        self._acc = ChunkedColumns(len(variables))

    def _consume_columns(self, columns: list[np.ndarray], n: int) -> None:
        self._acc.append(columns)

    def iter_chunks(self) -> Iterator[list[np.ndarray]]:
        """The collected column chunks, in emission order."""
        if self._acc is not None:
            yield from self._acc.iter_chunks()

    def relation(self, name: str = ""):
        """The collected output as a Relation (rows in emission order)."""
        from .relation import Relation

        variables = self.variables
        if not variables:
            return Relation((), [()] if self._n_rows else [], name=name)
        return Relation.from_columns(
            variables, self._acc.finalize(), name=name
        )


class CountSink(OutputSink):
    """|Q(D)| without materializing a single output row.

    Batch sizes fold into an exact Python-int total — the same big-int
    promotion discipline as :func:`repro.evaluation.acyclic_count`:
    nothing is ever accumulated in a wrapping ``int64``, so counts past
    2^63 (e.g. per-part counts folded in via :meth:`add`) stay exact.
    ``needs_values`` is ``False``: the evaluators skip the value-column
    decode entirely and report batch sizes via :meth:`append_size`.
    """

    needs_values = False

    def _consume_columns(self, columns: list[np.ndarray], n: int) -> None:
        pass  # the base class already counted the batch

    def add(self, count: int) -> None:
        """Fold in an externally computed (possibly huge) exact count."""
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"negative count {count}")
        self._n_rows += count

    @property
    def total(self) -> int:
        """The exact output count, as a Python int."""
        return self._n_rows


class GroupCountSink(OutputSink):
    """Output counts per projection of the binding.

    ``group_vars`` selects the projection; :meth:`counts` returns a
    ``Counter`` mapping each projected tuple to the number of output
    rows it appears in — identical to ``Counter(projected rows)`` of the
    materialized output, with peak memory O(#groups) instead of
    O(|Q(D)|).
    """

    def __init__(self, group_vars: Sequence[str]) -> None:
        super().__init__()
        self._group_vars = tuple(group_vars)
        self._positions: tuple[int, ...] | None = None
        self._counter: Counter = Counter()

    def _opened(self, variables: tuple[str, ...]) -> None:
        missing = [v for v in self._group_vars if v not in variables]
        if missing:
            raise ValueError(
                f"group variables {missing} not in output {variables}"
            )
        self._positions = tuple(
            variables.index(v) for v in self._group_vars
        )

    def _consume_columns(self, columns: list[np.ndarray], n: int) -> None:
        if not self._positions:
            self._counter[()] += n
            return
        projected = [columns[p].tolist() for p in self._positions]
        self._counter.update(zip(*projected))

    def counts(self) -> Counter:
        """Projected-tuple → multiplicity (a copy; keys are plain tuples)."""
        return Counter(self._counter)


class SpillSink(OutputSink):
    """Stream the output to disk; hold at most one chunk in RAM.

    Batches buffer in a :class:`ChunkedColumns` until ``chunk_rows`` rows
    are pending, then flush as one atomic ``.npz`` segment through a
    :class:`~repro.relational.chunkstore.SegmentStore` — peak live
    memory beyond the evaluator's O(block × depth) is O(chunk).
    :meth:`iter_chunks`/:meth:`iter_rows` re-iterate the spilled output
    in emission order with one chunk live at a time, so the round trip
    is bit-identical (rows, order, and dtype) to a materialized run.

    Use as a context manager: closing removes every segment the sink
    wrote (and its directory, if then empty) on success *and* on
    exception.  Concurrent runs must be given distinct directories.
    """

    def __init__(
        self, directory: str | os.PathLike, chunk_rows: int = 1 << 16
    ) -> None:
        super().__init__()
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be ≥ 1, got {chunk_rows}")
        self._directory = directory
        self._chunk_rows = int(chunk_rows)
        self._store = None
        self._buffer: ChunkedColumns | None = None
        self._buffered = 0
        self._closed = False

    def _opened(self, variables: tuple[str, ...]) -> None:
        from .chunkstore import SegmentStore

        if not variables:
            raise ValueError(
                "a zero-variable output has nothing to spill; use CountSink"
            )
        self._store = SegmentStore(self._directory, len(variables))
        self._buffer = ChunkedColumns(len(variables))

    @property
    def store(self):
        """The backing :class:`SegmentStore` (``None`` before open)."""
        return self._store

    def _consume_columns(self, columns: list[np.ndarray], n: int) -> None:
        if self._closed:
            raise RuntimeError("sink is closed")
        self._buffer.append(columns)
        self._buffered += n
        if self._buffered >= self._chunk_rows:
            self.flush()

    def flush(self) -> None:
        """Write any buffered rows as one segment."""
        if self._closed:
            # the segments are gone: answering from the empty store
            # would silently contradict n_rows
            raise RuntimeError("sink is closed; its segments were removed")
        if self._buffered:
            self._store.write(self._buffer.finalize())
            self._buffer = ChunkedColumns(len(self.variables))
            self._buffered = 0

    def iter_chunks(self) -> Iterator[list[np.ndarray]]:
        """Spilled column chunks, in emission order, one live at a time."""
        self.flush()
        yield from self._store.iter_chunks()

    def iter_rows(self) -> Iterator[tuple]:
        """Spilled rows as tuples, in emission order."""
        for chunk in self.iter_chunks():
            yield from zip(*[column.tolist() for column in chunk])

    def rows(self) -> list[tuple]:
        """Materialize every spilled row (test/report convenience)."""
        return list(self.iter_rows())

    def close(self) -> None:
        """Delete this sink's segments (idempotent)."""
        if self._store is not None:
            self._store.delete()
        self._buffer = None
        self._buffered = 0
        self._closed = True

    def __enter__(self) -> "SpillSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CodeTrie:
    """A sorted-codes trie over per-variable code columns.

    The columnar replacement for the nested-dict tries of Generic Join:
    rows are sorted lexicographically in the given column order, and trie
    level ``d`` is the *sorted* array of composite node keys

        ``parent_node_id * card_d + code_d``

    with one entry per distinct length-(d+1) prefix.  A node's children
    occupy the contiguous ``searchsorted``-delimited range
    ``[searchsorted(keys, node·card), searchsorted(keys, (node+1)·card))``
    and a child's *position in the level array* is its node id at the next
    level — so descending, enumerating children, and membership tests are
    all ``O(log n)`` gathers, vectorized over whole batches of bindings.

    ``columns`` must already live in the code space shared by every trie
    that will be intersected against this one (the database's one
    dictionary, see :func:`unify_domain`); ``cards`` are its sizes.  Raises
    ``OverflowError`` if a level's key space would exceed ``int64``.
    """

    __slots__ = ("n_rows", "n_levels", "cards", "level_keys", "_ranges")

    def __init__(
        self, columns: Sequence[np.ndarray], cards: Sequence[int]
    ) -> None:
        self.n_levels = len(columns)
        self.n_rows = len(columns[0]) if self.n_levels else 0
        self.cards = [max(1, int(c)) for c in cards]
        self._ranges: list[tuple[np.ndarray, np.ndarray] | None] = [
            None
        ] * self.n_levels
        if self.n_rows == 0:
            self.level_keys = [_EMPTY_CODES] * self.n_levels
            return
        order = np.lexsort(tuple(reversed(list(columns))))
        node = np.zeros(self.n_rows, dtype=np.int64)
        n_nodes = 1
        level_keys: list[np.ndarray] = []
        new = np.empty(self.n_rows, dtype=bool)
        new[0] = True
        for column, card in zip(columns, self.cards):
            if n_nodes * card >= _MAX_RADIX:  # pragma: no cover - huge
                raise OverflowError("trie level key radix exceeds int64")
            # rows are lexsorted, so `pair` is non-decreasing: run starts
            # give the distinct prefixes *and* the next level's node ids.
            pair = node * card + column[order]
            np.not_equal(pair[1:], pair[:-1], out=new[1:])
            level_keys.append(pair[new])
            node = np.cumsum(new) - 1
            n_nodes = len(level_keys[-1])
        self.level_keys = level_keys

    def _child_ranges(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)``: node n's children at ``depth`` occupy
        positions ``starts[n] .. starts[n] + counts[n]``.

        Node ids at ``depth`` are ranks into the previous level's key
        array, so the ranges are computable once per level (a bincount +
        cumsum, cached) and :meth:`children_ranges` becomes two gathers.
        """
        n_nodes = 1 if depth == 0 else len(self.level_keys[depth - 1])
        parents = self.level_keys[depth] // self.cards[depth]
        counts = np.bincount(parents, minlength=n_nodes)
        starts = np.zeros(n_nodes, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        self._ranges[depth] = ranges = (starts, counts)
        return ranges

    def children_ranges(
        self, depth: int, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per node: (first child position, child count) at ``depth``."""
        if len(self.level_keys[depth]) == 0:
            zeros = np.zeros(len(nodes), dtype=np.int64)
            return zeros, zeros
        ranges = self._ranges[depth]
        if ranges is None:
            ranges = self._child_ranges(depth)
        starts, counts = ranges
        return starts[nodes], counts[nodes]

    def children_at(
        self,
        depth: int,
        nodes: np.ndarray,
        first: np.ndarray,
        offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One chosen child per node: the ``offsets[i]``-th of node ``i``.

        The restartable child gather: callers that enumerate a batch's
        flattened child space in fixed-size blocks compute, per block
        entry, its parent node and the offset inside that parent's child
        range, and gather just those children — the full
        ``Σ counts``-sized expansion is never materialized.  ``first`` is
        the per-entry gather of :meth:`children_ranges`'s first-child
        positions; offsets must satisfy ``0 ≤ offsets[i] < counts`` for
        the matching node.

        Returns ``(child_node_ids, child_codes)``.
        """
        positions = first + offsets
        codes = self.level_keys[depth][positions] - nodes * self.cards[depth]
        return positions, codes

    def find_children(
        self, depth: int, nodes: np.ndarray, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized membership: does node ``i`` have child ``codes[i]``?

        Returns ``(found_mask, child_node_ids)`` (ids valid where found):
        one :func:`sorted_lookup` of the children's level keys.
        """
        return sorted_lookup(
            self.level_keys[depth], nodes * self.cards[depth] + codes
        )


class ColumnarRelation:
    """The encoded twin of a :class:`~repro.relational.relation.Relation`.

    Holds per-attribute code arrays and dictionaries (see
    :func:`encode_column`); all operations are NumPy-vectorized over the
    codes and return plain Python values (``int`` not ``np.int64``, the
    original objects for ``object`` dictionaries), so results equal the
    row-at-a-time computation on the decoded rows.
    """

    __slots__ = ("attributes", "n_rows", "_codes", "_dicts", "_tries")

    def __init__(
        self,
        attributes: tuple[str, ...],
        codes: dict[str, np.ndarray],
        dicts: dict[str, np.ndarray],
        n_rows: int,
    ) -> None:
        self.attributes = attributes
        self.n_rows = n_rows
        self._codes = codes
        self._dicts = dicts

    def __getstate__(self):
        # the trie cache is a per-process acceleration structure built
        # from codes+dicts on demand; shipping it to a pool worker would
        # multiply the payload for nothing
        return (self.attributes, self.n_rows, self._codes, self._dicts)

    def __setstate__(self, state):
        self.attributes, self.n_rows, self._codes, self._dicts = state

    def codes(self, attr: str) -> np.ndarray:
        """The int64 code array of one column."""
        return self._codes[attr]

    def trie(self, attrs: Sequence[str]) -> "CodeTrie":
        """The :class:`CodeTrie` over ``attrs`` in that column order.

        Tries are cached per column order (relations are immutable), so
        repeated evaluations — every part combination of the Theorem 2.6
        algorithm re-joins the same parts — pay the lexsort once.
        """
        key = tuple(attrs)
        try:
            cache = self._tries
        except AttributeError:
            cache = self._tries = {}
        trie = cache.get(key)
        if trie is None:
            trie = CodeTrie(
                [self._codes[a] for a in key],
                [len(self._dicts[a]) for a in key],
            )
            cache[key] = trie
        return trie

    def dictionary(self, attr: str) -> np.ndarray:
        """The distinct values (code -> value) of one column."""
        return self._dicts[attr]

    def take(self, indices: np.ndarray) -> "ColumnarRelation":
        """Row subset by positional indices (one gather per column).

        Dictionaries are shared unchanged — they may become supersets of
        the values actually present, which every kernel here tolerates
        (only codes witness occurrence).
        """
        return ColumnarRelation(
            self.attributes,
            {a: c[indices] for a, c in self._codes.items()},
            self._dicts,
            len(indices),
        )

    def _recoded(self, domain: np.ndarray, tables: dict) -> "ColumnarRelation":
        """This twin over ``domain``: ``tables`` maps each dictionary's
        ``id`` to its :func:`dict_mapping` table into ``domain``, or to
        ``None`` when the dictionary equals ``domain`` — those columns
        keep their code arrays, and tries over them only stay cached."""
        kept = {
            a for a, d in self._dicts.items() if tables[id(d)] is None
        }
        out = ColumnarRelation(
            self.attributes,
            {
                a: c if a in kept else tables[id(self._dicts[a])][c]
                for a, c in self._codes.items()
            },
            dict.fromkeys(self.attributes, domain),
            self.n_rows,
        )
        cache = getattr(self, "_tries", None)
        if cache:
            out._tries = {
                key: trie for key, trie in cache.items() if kept.issuperset(key)
            }
        return out

    def renamed(self, mapping) -> "ColumnarRelation":
        """Share the arrays under renamed attributes (zero copy)."""
        attrs = tuple(mapping.get(a, a) for a in self.attributes)
        codes = {mapping.get(a, a): c for a, c in self._codes.items()}
        dicts = {mapping.get(a, a): d for a, d in self._dicts.items()}
        return ColumnarRelation(attrs, codes, dicts, self.n_rows)

    # ------------------------------------------------------------------
    # key construction and decoding
    # ------------------------------------------------------------------
    def key_codes(self, attrs: Sequence[str]) -> tuple[np.ndarray, int]:
        """Composite int64 key per row over ``attrs`` (empty -> all zeros)."""
        return composite_codes(
            [self._codes[a] for a in attrs],
            [len(self._dicts[a]) for a in attrs],
            self.n_rows,
        )

    def decode_rows(
        self, attrs: Sequence[str], indices: np.ndarray | None = None
    ) -> list[tuple]:
        """Materialize rows (all, or the selected indices) as tuples of
        Python values."""
        if not attrs:
            n = self.n_rows if indices is None else len(indices)
            return [()] * n
        if indices is None:
            columns = [self._dicts[a][self._codes[a]].tolist() for a in attrs]
        else:
            columns = [
                self._dicts[a][self._codes[a][indices]].tolist() for a in attrs
            ]
        return list(zip(*columns))

    # ------------------------------------------------------------------
    # vectorized statistics kernels
    # ------------------------------------------------------------------
    def group_size_counts(
        self, group_attrs: Sequence[str], value_attrs: Sequence[str]
    ) -> np.ndarray:
        """Distinct ``value_attrs`` count per ``group_attrs`` group.

        The counts come back ordered by composite group key — exactly the
        multiset a degree sequence sorts, without decoding any group key.
        """
        counts, _, _ = self._grouped_distinct(group_attrs, value_attrs)
        return counts

    def group_sizes(
        self, group_attrs: Sequence[str], value_attrs: Sequence[str]
    ) -> dict[tuple, int]:
        """Vectorized equivalent of ``Relation.group_sizes``."""
        counts, group_keys, all_group_keys = self._grouped_distinct(
            group_attrs, value_attrs
        )
        if counts.size == 0:
            return {}
        # one representative row index per distinct group key: np.unique on
        # the full key column is sorted, hence aligned with `group_keys`.
        _, first_row = np.unique(all_group_keys, return_index=True)
        keys = self.decode_rows(tuple(group_attrs), first_row)
        return dict(zip(keys, counts.tolist()))

    def _grouped_distinct(
        self, group_attrs: Sequence[str], value_attrs: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(counts per group, distinct group keys, per-row group keys)."""
        gkeys, gradix = self.key_codes(tuple(group_attrs))
        vkeys, vradix = self.key_codes(tuple(value_attrs))
        if self.n_rows == 0:
            return _EMPTY_CODES, _EMPTY_CODES, gkeys
        if gradix * vradix >= _MAX_RADIX:
            _, gkeys_d = np.unique(gkeys, return_inverse=True)
            uniq_v, vkeys = np.unique(vkeys, return_inverse=True)
            vradix = max(1, len(uniq_v))
            pair_base = gkeys_d.astype(np.int64)
        else:
            pair_base = gkeys
        # sort + run-length instead of np.unique: one O(N log N) sort gives
        # both the distinct (group, value) pairs and, because the group is
        # the high radix digit, the per-group runs in one pass.
        keys = np.sort(pair_base * vradix + vkeys)
        new_pair = np.empty(keys.shape, dtype=bool)
        new_pair[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new_pair[1:])
        group_of_pair = keys[new_pair] // vradix
        new_group = np.empty(group_of_pair.shape, dtype=bool)
        new_group[0] = True
        np.not_equal(group_of_pair[1:], group_of_pair[:-1], out=new_group[1:])
        starts = np.nonzero(new_group)[0]
        counts = np.diff(np.append(starts, len(group_of_pair)))
        return counts.astype(np.int64), group_of_pair[new_group], gkeys

    def distinct_count(self, attrs: Sequence[str]) -> int:
        """Number of distinct composite values over ``attrs``."""
        if self.n_rows == 0:
            return 0
        keys, _ = self.key_codes(tuple(attrs))
        return int(len(np.unique(keys)))

    def project(self, attrs: Sequence[str]) -> "ColumnarRelation":
        """The deduplicated projection, rows first-occurrence first.

        Reuses the sliced code arrays and the existing dictionaries
        (dropping duplicate rows cannot drop a dictionary value, so they
        stay valid).
        """
        attrs = tuple(attrs)
        if self.n_rows == 0:
            first = _EMPTY_CODES
        else:
            keys, _ = self.key_codes(attrs)
            _, first = np.unique(keys, return_index=True)
            first.sort()
        return ColumnarRelation(
            attrs,
            {a: self._codes[a][first] for a in attrs},
            {a: self._dicts[a] for a in attrs},
            len(first),
        )

    def present_value_arrays(self) -> list[np.ndarray]:
        """Per column, the values actually occurring in some row.

        Works from the code arrays, not the dictionaries: tables produced
        by row subsets (diagonals, Lemma 2.5 parts, semijoin survivors)
        share (superset) dictionaries with their inputs, so only codes witness which values actually occur.
        """
        if not self.attributes or self.n_rows == 0:
            return []
        return [
            self._dicts[a][np.unique(self._codes[a])] for a in self.attributes
        ]

    def active_domain(self) -> set:
        """Union of all columns' value sets (as Python values)."""
        present = self.present_value_arrays()
        if not present:
            return set()
        return set(np.concatenate(present).tolist())
