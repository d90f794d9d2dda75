"""A budgeted LRU cache for the hot-path memoisation layers.

Every long-lived cache in the serving stack — the service's parsed-query
and statistics caches, the solver's assembly and result memos — used to
be a plain dict: correct, but unbounded, so a stream of *distinct* query
texts (an adversary, or merely a diverse workload) grew the process
without limit.  :class:`LruCache` is the shared replacement: an
insertion-ordered map evicting least-recently-used entries whenever an
approximate **byte budget** is exceeded, with an eviction counter the
service surfaces in ``/metrics``.

Byte accounting uses :func:`approx_bytes` — a recursive
``sys.getsizeof`` walk that prices objects with an integer ``nbytes``
(NumPy arrays, a warm HiGHS model) at that size and descends into
containers and object ``__dict__``\\ s.  It is an *estimate*; the point
is that the total is monotone in what is stored, so a byte budget
genuinely bounds growth.

Thread-safety: the cache does **not** lock internally.  Every owner
(:class:`~repro.core.lp_bound.BoundSolver`,
:class:`~repro.service.service.BoundService`) already serialises its
cache mutations under its own lock; :meth:`peek` is the one documented
exception — a plain dict read (atomic under the GIL) that never mutates
recency, so hot paths may probe without taking the owner's lock.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator

__all__ = ["LruCache", "approx_bytes"]

#: Fallback size for objects ``sys.getsizeof`` cannot price.
_DEFAULT_OBJECT_BYTES = 64


def approx_bytes(obj: Any, _seen: set[int] | None = None) -> int:
    """Approximate deep size of ``obj`` in bytes.

    NumPy arrays count their buffer (``nbytes``); dicts, tuples, lists,
    sets, and plain objects (via ``__dict__`` / ``__slots__``) recurse
    with cycle protection.  Shared sub-objects are counted once per
    call, so a cached value's price is stable across re-insertions.
    """
    if _seen is None:
        _seen = set()
    marker = id(obj)
    if marker in _seen:
        return 0
    _seen.add(marker)
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):  # numpy arrays, HiGHS models
        return int(nbytes) + sys.getsizeof(obj, _DEFAULT_OBJECT_BYTES)
    total = sys.getsizeof(obj, _DEFAULT_OBJECT_BYTES)
    if isinstance(obj, dict):
        for key, value in obj.items():
            total += approx_bytes(key, _seen) + approx_bytes(value, _seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += approx_bytes(item, _seen)
    elif not isinstance(obj, (str, bytes, bytearray, int, float, complex, bool)):
        attrs = getattr(obj, "__dict__", None)
        if attrs:
            total += approx_bytes(attrs, _seen)
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                total += approx_bytes(getattr(obj, slot), _seen)
    return total


class LruCache:
    """An insertion-ordered map with a byte budget.

    ``max_bytes=None`` is an unbounded cache.  ``sizer``
    prices a value for the byte budget (default :func:`approx_bytes`);
    prices are computed once at insertion and cached per key.

    A single value larger than ``max_bytes`` is still admitted — the
    cache then holds that one entry; refusing it would turn the hot
    memo into a permanent miss.  Eviction order is strict LRU over
    :meth:`get` / :meth:`put` / :meth:`add` touches; :meth:`peek` never
    reorders.
    """

    def __init__(
        self,
        max_bytes: int | None = None,
        sizer: Callable[[Any], int] = approx_bytes,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be ≥ 1")
        self.max_bytes = max_bytes
        self._sizer = sizer
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._costs: dict[Hashable, int] = {}
        self.current_bytes = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def values(self) -> Iterator[Any]:
        """The cached values, least recently used first."""
        return iter(self._data.values())

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """A recency-neutral read — safe without the owner's lock."""
        return self._data.get(key, default)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Read ``key`` and mark it most-recently used."""
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def touch(self, key: Hashable) -> None:
        """Mark ``key`` most-recently used (after a lock-free ``peek``)."""
        if key in self._data:
            self._data.move_to_end(key)

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert/replace ``key`` (re-pricing it) and evict down to the
        budget."""
        if key in self._data:
            self.current_bytes -= self._costs[key]
        cost = self._sizer(value) if self.max_bytes is not None else 0
        self._data[key] = value
        self._data.move_to_end(key)
        self._costs[key] = cost
        self.current_bytes += cost
        self._evict()
        return value

    def add(self, key: Hashable, value: Any) -> Any:
        """``setdefault`` under the budget: keep the first value stored.

        Returns the incumbent when ``key`` is already present (marking
        it used), so racing computations of the same entry converge on
        one object — the discipline the pre-LRU ``dict.setdefault``
        call sites relied on.
        """
        incumbent = self._data.get(key)
        if incumbent is not None:
            self._data.move_to_end(key)
            return incumbent
        return self.put(key, value)

    def pop(self, key: Hashable, default: Any = None) -> Any:
        value = self._data.pop(key, default)
        if key in self._costs:
            self.current_bytes -= self._costs.pop(key)
        return value

    def clear(self) -> None:
        self._data.clear()
        self._costs.clear()
        self.current_bytes = 0

    # ------------------------------------------------------------------
    def _evict(self) -> None:
        if self.max_bytes is None:
            return
        while self.current_bytes > self.max_bytes and len(self._data) > 1:
            key, _ = self._data.popitem(last=False)
            self.current_bytes -= self._costs.pop(key)
            self.evictions += 1

    def stats(self) -> dict[str, int | None]:
        """The accounting block ``/metrics`` renders per cache layer."""
        return {
            "entries": len(self._data),
            "bytes": self.current_bytes if self.max_bytes is not None else None,
            "max_bytes": self.max_bytes,
            "evictions": self.evictions,
        }
