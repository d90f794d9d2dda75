"""NumPy primitives for the sorted-codes trie hot loops.

The blocked Generic Join spends its time in a handful of array steps
per frontier slice: the k-th-child gather of
:meth:`~repro.relational.columnar.CodeTrie.children_at`, the
``searchsorted`` membership filter that intersects each binding's
smallest-view candidates against the other participating atoms, the
``searchsorted`` parent recovery of the blocked frontier, and the
mixed-radix composite keys of cross-relation key matching.  This module
holds them as plain NumPy functions.

Nothing in this module imports the rest of the package; the columnar
substrate imports *it* (no cycles).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "active_mode",
    "children_at",
    "composite_keys",
    "find_children",
    "gather_ranges",
    "pack_plan",
    "slice_parents",
]

#: Radix products stay below this to keep composite keys overflow-free
#: (here and in :mod:`repro.relational.columnar`).
_MAX_RADIX = 1 << 62

_EMPTY_CODES = np.zeros(0, dtype=np.int64)


def active_mode() -> str:
    """The trie-kernel implementation: always ``"python"`` (NumPy).

    Kept for the environment stamp of ``perfbench/``, which records it.
    """
    return "python"


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
    positions = first + offsets
    codes = level_keys[positions] - nodes * card
    return positions, codes


def gather_ranges(
    starts: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per node: ``(starts[n], starts[n+1] - starts[n])`` in one pass."""
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
    ``searchsorted`` recovery step.
    """
    flat = np.arange(lo, hi)
    parents = np.searchsorted(ends, flat, side="right")
    return parents, flat - flat_starts[parents]


def pack_plan(cards: Sequence[int]) -> list[int] | None:
    """The mixed-radix plan for composite keys over ``cards``.

    Returns the per-column radices (a cardinality below 1 counts as 1),
    or ``None`` when their product reaches 2^62 and callers must
    re-factorize the key columns instead.
    """
    radices = [max(1, int(card)) for card in cards]
    radix = 1
    for card in radices:
        radix *= card
        if radix >= _MAX_RADIX:
            return None
    return radices


def composite_keys(
    code_arrays: Sequence[np.ndarray], cards: Sequence[int]
) -> np.ndarray | None:
    """One comparable ``int64`` key per row, ``None`` on radix overflow.

    The key builder behind
    :func:`~repro.relational.columnar.align_composite_keys`: the
    mixed-radix accumulation ``((c0·r1 + c1)·r2 + c2)…`` of
    :func:`pack_plan`'s radices, so keys order rows lexicographically.
    """
    radices = pack_plan(cards)
    if radices is None:
        return None
    if not code_arrays:
        return _EMPTY_CODES
    keys = code_arrays[0]
    for codes, radix in zip(code_arrays[1:], radices[1:]):
        keys = keys * radix + codes
    return keys
