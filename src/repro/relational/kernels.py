"""Fused compiled kernels for the sorted-codes trie hot loops.

PRs 1–4 vectorized the Generic Join in NumPy, but the blocked
depth-first loop still pays one Python dispatch and several array
temporaries *per primitive per slice*: the k-th-child gather of
:meth:`~repro.relational.columnar.CodeTrie.children_at`, the
``searchsorted`` membership filter that intersects each binding's
smallest-view candidates against the other participating atoms, and the
``searchsorted`` parent-recovery step of the blocked frontier.  This
module provides those primitives as fused Numba ``njit`` kernels — one
compiled pass, no intermediate arrays — next to the original NumPy
implementations, selected by a process-wide *kernel mode*:

``REPRO_KERNELS=auto`` (default)
    Numba kernels when :mod:`numba` is importable, the NumPy path
    otherwise.
``REPRO_KERNELS=numba``
    Require the compiled kernels; raise :class:`KernelUnavailableError`
    if Numba is missing (CI pins this on its compiled leg so the fast
    path can never silently rot back to NumPy).
``REPRO_KERNELS=python``
    Force the NumPy path even when Numba is installed (the oracle leg).

Both paths are **bit-identical** in everything observable: output rows,
row order, every sink's result, and the ``nodes_visited`` meter.  The
NumPy implementations here are byte-for-byte the pre-kernel code, so
``REPRO_KERNELS=python`` *is* the oracle the differential suite
(``tests/relational/test_kernels.py``) compares against.

Composite keys additionally get a *bit-packed* layout under the Numba
mode: when every column's dictionary size fits the packing budget
(:func:`pack_plan`), a row's mixed-radix key is assembled with shifts
and ors into one ``int64`` — a single-integer compare downstream.
Bit-packing preserves the lexicographic order and the equality
structure of the arithmetic mixed-radix keys (each field is an
order-preserving code narrower than its 2^bits slot), so sorts,
run-length groupings, and ``searchsorted`` matches agree exactly with
the NumPy path even though the raw key *values* differ.  When the
radices overflow — the same ``>= 2^62`` product test in both modes —
both return ``None`` and the caller
(:func:`~repro.relational.columnar.align_composite_keys`) re-factorizes
the key columns instead, so the two modes never diverge on which keys
take that route.

Nothing in this module imports the rest of the package; the columnar
substrate imports *it* (no cycles), and worker processes of
:func:`~repro.evaluation.parallel.evaluate_parallel` re-activate the
supervisor's mode explicitly via :func:`set_mode` so the whole fleet
computes on one path regardless of the multiprocessing start method.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Sequence

import numpy as np

__all__ = [
    "KernelUnavailableError",
    "MODES",
    "active_mode",
    "children_at",
    "composite_keys",
    "configured_mode",
    "find_children",
    "forced",
    "gather_ranges",
    "numba_available",
    "pack_plan",
    "set_mode",
    "slice_parents",
]

MODES = ("auto", "numba", "python")

_ENV_VAR = "REPRO_KERNELS"

#: Radix products stay below this to keep composite keys overflow-free.
#: Mirrors ``columnar._MAX_RADIX``.
_MAX_RADIX = 1 << 62

#: A bit-packed key must stay a non-negative ``int64``.
_PACK_MAX_BITS = 62

_EMPTY_CODES = np.zeros(0, dtype=np.int64)


class KernelUnavailableError(RuntimeError):
    """The ``numba`` kernel mode was requested but Numba is missing."""


try:  # pragma: no cover - exercised on the CI numba leg
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:
    _HAVE_NUMBA = False


def numba_available() -> bool:
    """Whether the compiled kernels can be activated in this process."""
    return _HAVE_NUMBA


def configured_mode() -> str:
    """The mode requested by ``REPRO_KERNELS`` (default ``auto``)."""
    mode = os.environ.get(_ENV_VAR, "auto").strip().lower() or "auto"
    if mode not in MODES:
        raise ValueError(
            f"{_ENV_VAR}={mode!r} is not one of {', '.join(MODES)}"
        )
    return mode


def _resolve(mode: str) -> str:
    if mode == "auto":
        return "numba" if _HAVE_NUMBA else "python"
    if mode == "numba" and not _HAVE_NUMBA:
        raise KernelUnavailableError(
            "kernel mode 'numba' requested but numba is not importable; "
            "install the optional extra (pip install 'repro[kernels]') "
            "or use REPRO_KERNELS=python"
        )
    return mode


#: The resolved mode (``"numba"`` | ``"python"``), lazily bound so that
#: importing the package never fails — a bad ``REPRO_KERNELS`` value or
#: a missing Numba surfaces on the first kernel *use* (or an explicit
#: :func:`set_mode`), with a message naming the fix.
_ACTIVE: str | None = None


def active_mode() -> str:
    """The resolved kernel mode of this process."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _resolve(configured_mode())
    return _ACTIVE


def set_mode(mode: str | None = None) -> str:
    """Activate a kernel mode process-wide; ``None`` re-reads the env var.

    Returns the resolved mode.  Raises :class:`KernelUnavailableError`
    for ``"numba"`` without Numba and ``ValueError`` for unknown names —
    *before* touching the active mode, so a failed switch leaves the
    process on its previous path.
    """
    global _ACTIVE
    if mode is None:
        mode = configured_mode()
    elif mode not in MODES:
        raise ValueError(f"kernel mode {mode!r} is not one of {', '.join(MODES)}")
    _ACTIVE = _resolve(mode)
    return _ACTIVE


@contextmanager
def forced(mode: str):
    """Temporarily activate ``mode`` (tests and mode-pinned benchmarks)."""
    global _ACTIVE
    prior = _ACTIVE
    set_mode(mode)
    try:
        yield active_mode()
    finally:
        _ACTIVE = prior


def _use_numba() -> bool:
    return active_mode() == "numba"


# ----------------------------------------------------------------------
# compiled kernels (defined only when Numba is importable; every kernel
# has a byte-for-byte-equivalent NumPy twin in the dispatchers below)
# ----------------------------------------------------------------------
if _HAVE_NUMBA:  # pragma: no cover - exercised on the CI numba leg

    @_njit(cache=True, inline="always")
    def _bisect_left_nb(keys, target):
        lo = 0
        hi = keys.shape[0]
        while lo < hi:
            mid = (lo + hi) >> 1
            if keys[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @_njit(cache=True)
    def _children_at_nb(keys, nodes, first, offsets, card):
        n = nodes.shape[0]
        positions = np.empty(n, dtype=np.int64)
        codes = np.empty(n, dtype=np.int64)
        for i in range(n):
            p = first[i] + offsets[i]
            positions[i] = p
            codes[i] = keys[p] - nodes[i] * card
        return positions, codes

    @_njit(cache=True)
    def _gather_ranges_nb(starts, nodes):
        n = nodes.shape[0]
        first = np.empty(n, dtype=np.int64)
        counts = np.empty(n, dtype=np.int64)
        for i in range(n):
            node = nodes[i]
            f = starts[node]
            first[i] = f
            counts[i] = starts[node + 1] - f
        return first, counts

    @_njit(cache=True)
    def _find_children_nb(keys, nodes, codes, card):
        n = nodes.shape[0]
        last = keys.shape[0] - 1
        found = np.empty(n, dtype=np.bool_)
        positions = np.empty(n, dtype=np.int64)
        for i in range(n):
            target = nodes[i] * card + codes[i]
            p = _bisect_left_nb(keys, target)
            if p > last:
                p = last
            positions[i] = p
            found[i] = keys[p] == target
        return found, positions

    @_njit(cache=True)
    def _slice_parents_nb(ends, flat_starts, lo, hi):
        m = hi - lo
        parents = np.empty(m, dtype=np.int64)
        offsets = np.empty(m, dtype=np.int64)
        # leftmost parent whose end exceeds ``lo`` (searchsorted 'right');
        # ends is a cumsum, so later candidates advance monotonically.
        j = _bisect_left_nb(ends, lo + 1)
        for i in range(m):
            flat = lo + i
            while ends[j] <= flat:
                j += 1
            parents[i] = j
            offsets[i] = flat - flat_starts[j]
        return parents, offsets

    @_njit(cache=True)
    def _shift_or_nb(acc, codes, shift):
        n = acc.shape[0]
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            out[i] = (acc[i] << shift) | codes[i]
        return out


# ----------------------------------------------------------------------
# dispatchers — the NumPy branches are the pre-kernel code, unchanged
# ----------------------------------------------------------------------
def children_at(
    level_keys: np.ndarray,
    nodes: np.ndarray,
    first: np.ndarray,
    offsets: np.ndarray,
    card: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One chosen child per node: ``(positions, codes)``.

    ``positions[i] = first[i] + offsets[i]`` into ``level_keys`` and
    ``codes[i] = level_keys[positions[i]] - nodes[i] * card`` — the
    restartable k-th-child gather behind
    :meth:`~repro.relational.columnar.CodeTrie.children_at`.
    """
    if _use_numba():
        return _children_at_nb(level_keys, nodes, first, offsets, card)
    positions = first + offsets
    codes = level_keys[positions] - nodes * card
    return positions, codes


def gather_ranges(
    starts: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per node: ``(starts[n], starts[n+1] - starts[n])`` in one pass."""
    if _use_numba():
        return _gather_ranges_nb(starts, nodes)
    first = starts[nodes]
    return first, starts[nodes + 1] - first


def find_children(
    level_keys: np.ndarray,
    nodes: np.ndarray,
    codes: np.ndarray,
    card: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched trie membership: ``(found_mask, child_node_ids)``.

    Does node ``i`` have child ``codes[i]``?  The intersection filter
    runs this per non-seed atom; the codes are already in the target
    trie's code space (one per database).  Ids are valid where found.
    """
    if len(level_keys) == 0:
        zeros = np.zeros(len(nodes), dtype=np.int64)
        return np.zeros(len(nodes), dtype=bool), zeros
    if _use_numba():
        return _find_children_nb(level_keys, nodes, codes, card)
    target = nodes * card + codes
    positions = np.searchsorted(level_keys, target, side="left")
    clipped = np.minimum(positions, len(level_keys) - 1)
    return level_keys[clipped] == target, clipped


def slice_parents(
    ends: np.ndarray, flat_starts: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Parent recovery for one candidate slice ``[lo, hi)``.

    ``ends`` is the cumsum of per-parent child counts and
    ``flat_starts = ends - counts``; candidate ``flat`` belongs to the
    parent whose half-open span covers it, at offset
    ``flat - flat_starts[parent]`` — the blocked frontier's
    ``searchsorted`` recovery step, fused into one pointer sweep.
    """
    if _use_numba():
        return _slice_parents_nb(ends, flat_starts, lo, hi)
    flat = np.arange(lo, hi)
    parents = np.searchsorted(ends, flat, side="right")
    return parents, flat - flat_starts[parents]


def pack_plan(
    cards: Sequence[int],
) -> tuple[str, list[int] | None] | None:
    """How composite keys over ``cards`` are assembled, or ``None``.

    Returns ``("packed", bits)`` when every column fits a bit field and
    the fields fit one non-negative ``int64`` (``Σ bits ≤ 62``),
    ``("arithmetic", None)`` when they do not but the plain mixed-radix
    product still fits, and ``None`` when the radix product reaches
    2^62 — one overflow test for both kernel modes, so they agree on
    when callers must re-factorize instead.
    """
    radix = 1
    for card in cards:
        radix *= max(1, int(card))
        if radix >= _MAX_RADIX:
            return None
    bits = [(max(1, int(card)) - 1).bit_length() for card in cards]
    if sum(bits) <= _PACK_MAX_BITS:
        return "packed", bits
    return "arithmetic", None


def composite_keys(
    code_arrays: Sequence[np.ndarray], cards: Sequence[int]
) -> np.ndarray | None:
    """One comparable ``int64`` key per row, ``None`` on radix overflow.

    The key builder behind
    :func:`~repro.relational.columnar.align_composite_keys`: under the
    Numba mode a :func:`pack_plan`-approved key is bit-packed (shift/or
    per column, single-int64 compares downstream); every other case —
    the NumPy mode, or dictionaries too wide to pack — uses the
    arithmetic mixed-radix accumulation unchanged.  Key order and
    equality are identical either way; only the raw values differ.
    """
    plan = pack_plan(cards)
    if plan is None:
        return None
    if not code_arrays:
        return _EMPTY_CODES
    keys = code_arrays[0]
    scheme, bits = plan
    if scheme == "packed" and _use_numba():
        for codes, width in zip(code_arrays[1:], bits[1:]):
            keys = _shift_or_nb(keys, codes, width)
        return keys
    for codes, card in zip(code_arrays[1:], cards[1:]):
        keys = keys * max(1, int(card)) + codes
    return keys
